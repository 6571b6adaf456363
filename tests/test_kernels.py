import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _block_positions, reference_sample_edges
from supergraph import kernels, rng
from supergraph.config import SizeConfiguration, power_law_configuration
from supergraph.sampler import resolve_p


def _tri_pairs_reference(m):
    return [(k, l) for k in range(m) for l in range(k + 1, m)]


def _plan(cfg, p, constructive=False):
    sizes, counts, offsets = cfg.size_classes()
    return kernels._plan(tuple(zip(sizes.tolist(), counts.tolist(), offsets.tolist())),
                         p, constructive)


def _runs(cfg, p, constructive=False):
    """The blocks of each round that starts a block."""
    return [sched.run.tolist() for sched in _plan(cfg, p, constructive)[1]]


@pytest.fixture
def fresh_plans():
    """No memoised plan on entry or on exit, for a test that patches the round constants."""
    kernels._plan.cache_clear()
    yield
    kernels._plan.cache_clear()


@pytest.fixture(params=[(1, 0), (3, 2 ** 62), (7, 2), (64, 16)], ids=["1", "3", "7", "64"])
def small_rounds(request, monkeypatch, fresh_plans):
    """Rounds of at most R draws in which a block of A draws or more is alone, for (R, A) = param.

    The ids name R. A = 0 puts every block in a round of its own, A = 2^62 none.
    """
    monkeypatch.setattr(kernels, "_ROUND_DRAWS", request.param[0])
    monkeypatch.setattr(kernels, "_ALONE_DRAWS", request.param[1])
    return request.param


def _record_rounds(monkeypatch):
    """Make kernels._round log each round's schedule and results in the returned list."""
    calls = []
    draw_round = kernels._round

    def record(sched, roots):
        result = draw_round(sched, roots)
        calls.append((sched, *result))
        return result

    monkeypatch.setattr(kernels, "_round", record)
    return calls


def _canonical_keys(eu, ev, n):
    # the key SuperGraph sorts by; the model defines no order of a graph's edges
    return np.sort(eu * n + ev)


def _assert_matches_reference(cfg, p, seed, constructive):
    arrays = cfg.size_classes()
    got = kernels.sample_edges(*arrays, p, seed, constructive=constructive)
    want = reference_sample_edges(*arrays, p, seed, constructive=constructive)
    assert got[0].dtype == got[1].dtype == np.int64
    assert got[0].shape == got[1].shape == want[0].shape == want[1].shape
    n = cfg.num_super
    assert np.array_equal(_canonical_keys(*got, n), _canonical_keys(*want, n))


class TestTriangularUnranking:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 60])
    def test_numpy_unranking_is_bijective(self, m):
        npairs = m * (m - 1) // 2
        pos = np.arange(npairs, dtype=np.int64)
        k, l = kernels._tri_rows(pos, m)
        assert list(zip(k.tolist(), l.tolist())) == _tri_pairs_reference(m)

    def test_one_side_per_rank(self):
        # a shared round unranks several diagonal blocks in one call
        sides = [2, 7, 60, 5]
        pos = np.concatenate([np.arange(m * (m - 1) // 2) for m in sides]).astype(np.int64)
        m = np.repeat(sides, [m * (m - 1) // 2 for m in sides])
        k, l = kernels._tri_rows(pos, m)
        want = [pair for side in sides for pair in _tri_pairs_reference(side)]
        assert list(zip(k.tolist(), l.tolist())) == want

    def test_large_side_near_the_2_53_cap(self):
        # (2m-1)^2 is past 2^53 here, so the float guess is off and the checks fix it
        m = 134_000_000
        last = m * (m - 1) // 2 - 1
        pos = np.array([0, m - 2, m - 1, last - 1, last], np.int64)
        k, l = kernels._tri_rows(pos, m)
        assert k.tolist() == [0, 0, 1, m - 3, m - 2]
        assert l.tolist() == [1, m - 1, 2, m - 1, m - 1]


class TestBlockPositions:
    """A block's hit positions, drawn round after round."""

    def test_positions_prefix_property(self):
        # batched generation must cut at the first overshoot, like the
        # sequential loop does
        blk, rounds = _plan(SizeConfiguration({1: 142}), 0.01)
        space = int(blk.space[0])
        assert space == 10_011
        roots = rng.stream_roots(4, blk.keys)
        full, found, short, reached = kernels._round(rounds[0], roots)
        assert len(rounds) == 1 and not short.any() and reached is None
        assert (np.diff(full) > 0).all()
        assert full[-1] < space
        assert found.tolist() == [full.shape[0]]
        assert np.array_equal(full, _block_positions(float(space), float(blk.p_blk[0]), int(roots[0])))

    def test_batched_stitching_matches_single_batch(self, small_rounds):
        # tiny rounds make the block draw on many times; its edges must not
        # depend on the batching
        cfg = SizeConfiguration({1: 317})
        assert _plan(cfg, 0.002)[1][0].batch.tolist() == [small_rounds[0]]
        _assert_matches_reference(cfg, 0.002, 21, False)

    def test_batch_ending_on_the_last_hit(self, monkeypatch, fresh_plans):
        # a round of exactly the hit count ends on the last hit, so the block
        # draws on and the next round overshoots on its first draw
        cfg = SizeConfiguration({1: 317})
        hits = reference_sample_edges(*cfg.size_classes(), 0.002, 21)[0].shape[0]
        assert hits > 0
        monkeypatch.setattr(kernels, "_ROUND_DRAWS", hits)
        calls = _record_rounds(monkeypatch)
        _assert_matches_reference(cfg, 0.002, 21, False)
        assert [(found.tolist(), short.tolist()) for _, _, found, short, _ in calls] == [
            ([hits], [True]), ([0], [False])]

    def test_batch_capped_below_2_61_over_the_gap_clip(self):
        # a block expecting ~1000 hits: its batch is cut to 2^61 // (space + 2)
        # draws, so it takes several rounds. The second block has the most
        # positions a block may have, where the cap is lowest.
        for counts, p, space, cap in [({2 ** 26: 2}, 1000.0 / 2 ** 52, 2 ** 52, 511),
                                      ({2 ** 26: 1, 2 ** 27: 1}, 1e-13, 2 ** 53, 255)]:
            cfg = SizeConfiguration(counts)
            blk, rounds = _plan(cfg, p, constructive=True)
            assert int(blk.space[0]) == space
            assert rounds[0].batch.tolist() == [cap]
            root = int(rng.stream_roots(3, blk.keys)[0])
            assert _block_positions(float(space), p, root).shape[0] > cap  # more hits than one batch holds
            _assert_matches_reference(cfg, p, 3, constructive=True)

    def test_later_rounds_draw_only_blocks_that_ended_short(self, monkeypatch, fresh_plans):
        # rounds of at most 64 draws: the first rounds start every block in
        # block order, and each later round draws only open blocks
        cfg = power_law_configuration(5000, 2.0, 40)
        p = resolve_p("sparse", 3.0, cfg).p
        monkeypatch.setattr(kernels, "_ROUND_DRAWS", 64)
        calls = _record_rounds(monkeypatch)
        _assert_matches_reference(cfg, p, 5, False)
        first = _runs(cfg, p)
        assert [b for run in first for b in run] == list(range(len(_plan(cfg, p)[0].space)))
        assert 100 < len(first) < len(calls)
        assert [sched.run.tolist() for sched, *_ in calls[:len(first)]] == first
        open_blocks = set()
        for r, (sched, _, _, short, _) in enumerate(calls):
            run = sched.run.tolist()
            if r >= len(first):
                assert set(run) <= open_blocks
            open_blocks = (open_blocks - set(run)) | set(sched.run[short].tolist())
        assert not open_blocks


class TestSmallRounds:
    """The kernel's edges do not depend on how many draws a round holds or which blocks draw alone."""

    @pytest.mark.parametrize("constructive", [False, True])
    def test_every_pair_at_p_1(self, small_rounds, constructive):
        # every position hits, so with constructive hits a super pair straddles
        # round boundaries
        _assert_matches_reference(SizeConfiguration({1: 3, 2: 4, 5: 2}), 1.0, 8, constructive)

    def test_sparse_power_law(self, small_rounds):
        cfg = power_law_configuration(5000, 2.0, 40)
        _assert_matches_reference(cfg, resolve_p("sparse", 3.0, cfg).p, 5, False)

    def test_rounds_split_to_keep_sums_in_int64(self, small_rounds):
        cfg = SizeConfiguration({2 ** 24 + i: 4 for i in range(10)})
        _assert_matches_reference(cfg, 1e-15, 11, constructive=True)

    def test_block_of_exactly_2_53_positions(self, small_rounds):
        _assert_matches_reference(SizeConfiguration({2 ** 26: 1, 2 ** 27: 1}), 1e-18, 0, True)


class TestAgainstPerBlockReference:
    """The kernel gives the per-block loop's edges exactly."""

    @settings(max_examples=80, deadline=None)
    @given(counts=st.dictionaries(st.integers(1, 50), st.integers(1, 300), min_size=1, max_size=8),
           p=st.one_of(st.just(0.0), st.just(0.9),
                        st.floats(-6.0, 0.0, exclude_max=True).map(lambda e: 10.0 ** e)),
           seed=st.integers(0, 2 ** 64 - 1), constructive=st.booleans())
    @example(counts={1: 3, 7: 2}, p=0.9, seed=0, constructive=False)  # p_blk rounds to 1
    def test_random_configurations(self, counts, p, seed, constructive):
        cfg = SizeConfiguration(counts)
        if constructive:
            # the reference materialises every underlying hit: keep ~2e5 of them at most
            pairs = cfg.num_vertices ** 2 / 2
            p = min(p, 2e5 / pairs)
        _assert_matches_reference(cfg, p, seed, constructive)

    @pytest.mark.parametrize("constructive", [False, True])
    def test_every_pair_at_p_1(self, constructive):
        _assert_matches_reference(SizeConfiguration({1: 3, 2: 4, 5: 2}), 1.0, 8, constructive)

    @pytest.mark.parametrize("constructive", [False, True])
    def test_58_class_power_law(self, constructive):
        cfg = power_law_configuration(100_000, 2.0, 300)
        assert len(cfg.counts) == 58
        _assert_matches_reference(cfg, resolve_p("sparse", 1.0, cfg).p, 1, constructive)

    @pytest.mark.parametrize("constructive", [False, True])
    def test_large_block_between_small_ones(self, constructive):
        # block 3 (the size-2 class with itself) has a round of its own, which
        # cuts the small blocks' rounds in two
        cfg = SizeConfiguration({1: 2, 2: 2000, 3: 2})
        assert _runs(cfg, 0.01, constructive) == [[0, 1, 2], [3], [4, 5]]
        _assert_matches_reference(cfg, 0.01, 6, constructive)

    @pytest.mark.parametrize("counts, p, constructive", [({1: 2000}, 0.6, False),
                                                         ({2: 800}, 0.9, True)])
    def test_block_of_more_than_2_20_draws(self, counts, p, constructive):
        # one block expecting more than 2^20 hits; constructive, ~3.6 in each super pair
        (size, count), = counts.items()
        assert count * (count - 1) // 2 * size * size * p > 2 ** 20
        _assert_matches_reference(SizeConfiguration(counts), p, 2, constructive)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_of_exactly_2_53_positions(self, seed):
        # the first gap is almost surely past the block; float64 rounds a clip
        # of 2^53 + 1 down to 2^53, which would land it on the last position
        cfg = SizeConfiguration({2 ** 26: 1, 2 ** 27: 1})
        assert int(_plan(cfg, 1e-18, True)[0].space[0]) == 2 ** 53
        _assert_matches_reference(cfg, 1e-18, seed, constructive=True)

    def test_rounds_split_to_keep_sums_in_int64(self):
        # 55 blocks of up to 2^52 positions: their capped gap sums pass 2^62,
        # so the first round takes only a prefix of the blocks
        cfg = SizeConfiguration({2 ** 24 + i: 4 for i in range(10)})
        blk, rounds = _plan(cfg, 1e-15, True)
        assert 0 < rounds[0].run.shape[0] < blk.space.shape[0] == 55
        _assert_matches_reference(cfg, 1e-15, 11, constructive=True)

    @pytest.mark.parametrize("constructive", [False, True])
    @pytest.mark.parametrize("counts", [{1: 1000}, {1: 3, 2: 4, 5: 2}])
    @pytest.mark.parametrize("p", [1e-310, 5e-324])
    def test_subnormal_p_matches_reference(self, p, counts, constructive):
        # log1p(-u) / log_q passes the float64 maximum for most draws; such a gap
        # leaves the block, so the kernel must neither warn nor lose an edge. The
        # reference does the same divide, and warns.
        cfg = SizeConfiguration(counts)
        arrays = cfg.size_classes()
        got = kernels.sample_edges(*arrays, p, 5, constructive=constructive)
        with np.errstate(over="ignore"):
            want = reference_sample_edges(*arrays, p, 5, constructive=constructive)
        assert got[0].shape == want[0].shape
        n = cfg.num_super
        assert np.array_equal(_canonical_keys(*got, n), _canonical_keys(*want, n))


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the block table was checked")


def test_oversized_block_raises_before_any_draw(monkeypatch):
    # only the last block, the one of the two size-2^27 super-vertices, passes 2^53
    cfg = SizeConfiguration({1: 3, 2 ** 27: 2})
    arrays = cfg.size_classes()
    with pytest.raises(ValueError) as want:
        reference_sample_edges(*arrays, 1e-9, 0, constructive=True)
    monkeypatch.setattr(kernels, "rng", _NoDraws())
    with pytest.raises(ValueError) as got:
        kernels.sample_edges(*arrays, 1e-9, 0, constructive=True)
    assert str(got.value) == str(want.value)
    assert "past the 2^53" in str(got.value)
