import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergraph.config import (LimitProfile, SizeConfiguration, empirical_profile,
                               parse_configuration, parse_inline,
                               power_law_configuration, serialize_configuration)


class TestParsing:
    def test_identity_case(self):
        assert parse_configuration('{"sizes": {"1": 3}}').counts == {1: 3}

    def test_direct_echo(self):
        assert parse_configuration('{"sizes": {"1": 2, "3": 1}}').counts == {1: 2, 3: 1}

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            parse_configuration('{"sizes": {"0": 5}}')

    @pytest.mark.parametrize("text", [
        "not json",
        "{}",
        '{"sizes": {}}',
        '{"sizes": {"2": 0}}',
        '{"sizes": {"-1": 4}}',
        '{"sizes": {"1.5": 4}}',
        '{"sizes": {"1": 2.5}}',
        '{"sizes": {"1": true}}',
        '{"sizes": {"01": 2}}',
        '{"sizes": {"+5": 2}}',
        '{"sizes": [1, 2]}',
    ])
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(ValueError):
            parse_configuration(text)

    @pytest.mark.parametrize("text,key", [
        ('{"sizes": {"1": 5, "1": 7}}', "'1'"),
        ('{"sizes": {"1": 5, "2": 3, "1": 5}}', "'1'"),
        ('{"sizes": {"1": 5}, "sizes": {"2": 3}}', "'sizes'"),
        ('{"sizes": {"1": 5}, "note": {"a": 1, "a": 2}}', "'a'"),
    ], ids=["size", "size_same_count", "top_level", "nested"])
    def test_duplicate_keys_rejected(self, text, key):
        with pytest.raises(ValueError, match=f"duplicate key {key}"):
            parse_configuration(text)

    def test_inline_shorthand(self):
        assert parse_inline("1x500,2x250").counts == {1: 500, 2: 250}

    @pytest.mark.parametrize("text", ["", "1x", "x3", "1x2,1x3", "0x4", "2x-1"])
    def test_inline_rejects(self, text):
        with pytest.raises(ValueError):
            parse_inline(text)


class TestDeriveCounts:
    """(N, n) derived from the counts: num_super and num_vertices."""

    def test_hand_arithmetic(self):
        cfg = SizeConfiguration({1: 2, 3: 1})
        assert (cfg.num_super, cfg.num_vertices) == (3, 5)

    def test_all_size_one(self):
        cfg = SizeConfiguration({1: 137})
        assert (cfg.num_super, cfg.num_vertices) == (137, 137)

    def test_uniform_pairs(self):
        cfg = SizeConfiguration({2: 1000})
        assert (cfg.num_super, cfg.num_vertices) == (1000, 2000)


class TestEmpiricalProfile:
    def test_homogeneous(self):
        prof = empirical_profile(SizeConfiguration({1: 50}))
        assert prof.mu == {1: 1.0}
        assert prof.u == 1.0 and prof.s2 == 1.0

    def test_two_sizes(self):
        prof = empirical_profile(SizeConfiguration({1: 500, 2: 500}))
        assert prof.mu == {1: 0.5, 2: 0.5}
        assert prof.u == 1.5
        assert math.isclose(prof.s2, 5 / 3, rel_tol=0, abs_tol=1e-15)

    def test_single_size_three(self):
        prof = empirical_profile(SizeConfiguration({3: 300}))
        assert prof.mu == {3: 1.0}
        assert prof.u == 3.0 and prof.s2 == 3.0

    def test_profile_invariants_rejected(self):
        with pytest.raises(ValueError):
            LimitProfile(mu={1: 0.6, 2: 0.6}, u=1.8, s2=2.0)
        with pytest.raises(ValueError):
            LimitProfile(mu={1: 1.0}, u=2.0, s2=1.0)

    @pytest.mark.parametrize("make", [
        lambda: LimitProfile(mu={1: 1.0}, u=math.nan, s2=math.nan),
        lambda: LimitProfile(mu={1: math.nan}, u=1.0, s2=1.0),
        lambda: LimitProfile(mu={1: 1.0}, u=1.0, s2=math.inf),
        lambda: LimitProfile(mu={1: 1.0}, u=math.inf, s2=1.0),
        lambda: LimitProfile(mu={1.5: 1.0}, u=1.5, s2=1.5),
        lambda: LimitProfile(mu={True: 1.0}, u=1.0, s2=1.0),
        lambda: LimitProfile.from_weights({0: 1.0}),
        lambda: LimitProfile.from_weights({1.5: 1.0}),
        lambda: LimitProfile.from_weights({1: math.nan}),
    ], ids=["u-s2-nan", "mu-nan", "s2-inf", "u-inf", "size-1.5", "size-bool",
            "weights-size-0", "weights-size-1.5", "weights-nan"])
    def test_non_finite_or_non_integer_rejected(self, make):
        # NaN compares false, so the tolerance checks alone let these through
        with pytest.raises(ValueError):
            make()


class TestPowerLaw:
    def test_degenerate_support(self):
        assert power_law_configuration(100, 2.0, 1).counts == {1: 100}

    def test_counts_decrease_and_sum(self):
        cfg = power_law_configuration(1000, 2.0, 10)
        assert sum(cfg.counts.values()) == 1000
        sizes = sorted(cfg.counts)
        # strictly decreasing below the top size, which carries the tail atom
        below = [s for s in sizes if s < 10]
        assert all(cfg.counts[a] > cfg.counts[b] for a, b in zip(below, below[1:]))
        assert cfg.counts[sizes[0]] == max(cfg.counts[s] for s in sizes)

    def test_tail_matches_exact_sum_within_rounding(self):
        n_super, max_size = 1000, 10
        cfg = power_law_configuration(n_super, 2.0, max_size)
        mu_tail = sum(k for i, k in cfg.counts.items() if i >= 3) / n_super
        # the target tail is exactly k^-alpha by construction
        assert abs(mu_tail - 3.0 ** -2.0) <= max_size / n_super

    def test_tail_exact_before_rounding_at_every_k(self):
        n_super, max_size = 100_000, 50
        cfg = power_law_configuration(n_super, 2.0, max_size)
        for k in (2, 5, 10, 25, 50):
            mu_tail = sum(c for i, c in cfg.counts.items() if i >= k) / n_super
            assert abs(mu_tail - k ** -2.0) <= max_size / n_super

    @pytest.mark.parametrize("n,alpha,max_size", [
        (100, 1.0, 5), (100, 0.5, 5), (10, 2.0, 11), (0, 2.0, 1), (5, 2.0, 0),
    ])
    def test_rejects(self, n, alpha, max_size):
        with pytest.raises(ValueError):
            power_law_configuration(n, alpha, max_size)

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, 1.0])
    def test_rejects_alpha_not_above_one(self, alpha):
        with pytest.raises(ValueError, match="alpha must be > 1"):
            power_law_configuration(100, alpha, 5)


class TestValidation:
    @pytest.mark.parametrize("counts", [{}, {0: 1}, {1: 0}, {-2: 3}, {2: -1}])
    def test_bad_counts(self, counts):
        with pytest.raises(ValueError):
            SizeConfiguration(counts)


@st.composite
def configurations(draw):
    counts = draw(st.dictionaries(st.integers(1, 60), st.integers(1, 10 ** 6),
                                  min_size=1, max_size=12))
    return SizeConfiguration(counts)


@given(configurations())
@settings(max_examples=200, deadline=None)
def test_roundtrip_parse_serialize(cfg):
    assert parse_configuration(serialize_configuration(cfg)) == cfg


@given(configurations())
@settings(max_examples=200, deadline=None)
def test_profile_identities(cfg):
    n_super, n_vert = cfg.num_super, cfg.num_vertices
    prof = empirical_profile(cfg)
    # u*N = n holds exactly in integer arithmetic before division
    assert prof.u * n_super == pytest.approx(n_vert, abs=1e-9 * n_vert)
    assert n_vert == sum(i * k for i, k in cfg.counts.items())
    assert math.isclose(math.fsum(prof.mu.values()), 1.0, abs_tol=1e-12)
    assert prof.s2 >= prof.u >= 1.0
    # both equalities hold together exactly for the all-size-1 profile
    assert (prof.u == 1.0 and prof.s2 == 1.0) == (set(cfg.counts) == {1})
    if len(cfg.counts) > 1:
        assert prof.s2 > prof.u


@given(st.integers(2, 5000), st.floats(1.01, 4.0), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_power_law_sums_exactly(n_super, alpha, max_size):
    if max_size > n_super:
        max_size = n_super
    cfg = power_law_configuration(n_super, alpha, max_size)
    assert sum(cfg.counts.values()) == n_super
    assert max(cfg.counts) <= max_size
