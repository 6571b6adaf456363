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


def _pass_and_roots(cfg, p, seed, constructive=False):
    """The graph's first pass and its blocks' stream roots."""
    plan = _plan(cfg, p, constructive)
    blk = plan.passes[0]
    return blk, rng.stream_roots(seed, plan.keys)[blk.index]


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
        # a shared pass unranks several diagonal blocks in one call
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
    """The pass's hit positions, through its batch hook ``kernels._hits``."""

    def test_positions_prefix_property(self):
        # batched generation must cut at the first overshoot, like the
        # sequential loop does
        blk, roots = _pass_and_roots(SizeConfiguration({1: 142}), 0.01, 4)
        space = int(blk.space[0])
        assert space == 10_011
        full, found = kernels._hits(blk, roots)
        assert (np.diff(full) > 0).all()
        assert full[-1] < space
        assert found.tolist() == [full.shape[0]]
        assert np.array_equal(full, _block_positions(float(space), float(blk.p_blk[0]), int(roots[0])))

    @pytest.mark.parametrize("hint", [1, 3, 7, 64])
    def test_batched_stitching_matches_single_batch(self, hint):
        # tiny forced batches make the refill loop run many times; the
        # positions must not depend on the batching
        blk, roots = _pass_and_roots(SizeConfiguration({1: 317}), 0.002, 21)
        want, _ = kernels._hits(blk, roots)
        got, found = kernels._hits(blk, roots, batch_hint=np.array([hint]))
        assert np.array_equal(want, got)
        assert found.tolist() == [want.shape[0]]

    def test_batch_ending_on_the_last_hit(self):
        # a batch of exactly the hit count ends on the last hit, so the loop
        # refills once and the next batch overshoots on its first draw
        blk, roots = _pass_and_roots(SizeConfiguration({1: 317}), 0.002, 21)
        want, _ = kernels._hits(blk, roots)
        assert want.shape[0] > 0
        got, _ = kernels._hits(blk, roots, batch_hint=np.array([want.shape[0]]))
        assert np.array_equal(want, got)

    def test_one_block_of_many_refills_alone(self, monkeypatch):
        # one block in the middle of a shared pass draws one number a round,
        # its neighbours draw their usual batch and finish in the first round
        cfg = power_law_configuration(5000, 2.0, 40)
        blk, roots = _pass_and_roots(cfg, resolve_p("sparse", 3.0, cfg).p, 5)
        want, want_found = kernels._hits(blk, roots)
        k = want_found.shape[0]
        assert k > 100
        j = k // 2 + int(np.argmax(want_found[k // 2:] >= 3))
        assert 0 < j < k - 1 and want_found[j] >= 3
        hint = np.zeros(k, np.int64)
        hint[j] = 1
        runs = []
        draw_round = kernels._round

        def record(sched, roots):
            runs.append(sched.run.tolist())
            return draw_round(sched, roots)

        monkeypatch.setattr(kernels, "_round", record)
        got, found = kernels._hits(blk, roots, batch_hint=hint)
        assert np.array_equal(found, want_found)
        assert np.array_equal(got, want)
        assert runs[0] == list(range(k))
        assert runs[1:] == [[j]] * int(want_found[j])

    def test_batch_capped_below_2_61_over_the_gap_clip(self):
        # one block of 2^52 positions expecting ~1000 hits: its batch is cut
        # to 2^61 // (2^52 + 2) = 511 draws, so it takes several rounds
        cfg = SizeConfiguration({2 ** 26: 2})
        p = 1000.0 / 2 ** 52
        blk, roots = _pass_and_roots(cfg, p, 3, constructive=True)
        assert int(blk.space[0]) == 2 ** 52
        assert blk.first.batch.tolist() == [511]
        got, found = kernels._hits(blk, roots)
        assert found[0] > 511  # more hits than one batch holds
        assert np.array_equal(got, _block_positions(2.0 ** 52, p, int(roots[0])))


class TestAgainstPerBlockReference:
    """The one-pass kernel gives the per-block loop's edge arrays exactly."""

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
        # block 3 (the size-2 class with itself) gets a pass of its own, so the
        # passes join in an order that is not block order
        cfg = SizeConfiguration({1: 2, 2: 2000, 3: 2})
        plan = _plan(cfg, 0.01, constructive)
        assert [blk.index.tolist() for blk in plan.passes] == [[3], [0, 1, 2, 4, 5]]
        _assert_matches_reference(cfg, 0.01, 6, constructive)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_of_exactly_2_53_positions(self, seed):
        # the first gap is almost surely past the block; float64 rounds a clip
        # of 2^53 + 1 down to 2^53, which would land it on the last position
        cfg = SizeConfiguration({2 ** 26: 1, 2 ** 27: 1})
        assert int(_plan(cfg, 1e-18, True).passes[0].space[0]) == 2 ** 53
        _assert_matches_reference(cfg, 1e-18, seed, constructive=True)

    def test_rounds_split_to_keep_sums_in_int64(self):
        # 55 blocks of up to 2^52 positions: their capped gap sums pass 2^62,
        # so the first round takes only a prefix of the blocks
        cfg = SizeConfiguration({2 ** 24 + i: 4 for i in range(10)})
        blk, _ = _pass_and_roots(cfg, 1e-15, 0, constructive=True)
        assert len(_plan(cfg, 1e-15, True).passes) == 1
        assert 0 < blk.first.run.shape[0] < blk.space.shape[0] == 55
        _assert_matches_reference(cfg, 1e-15, 11, constructive=True)


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
