import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (bisect_giant_fraction, bisect_homogeneous_survival,
                     decimal_isolated_variance, enumerate_isolated_moments,
                     newton_two_type, small_configs)
from supergraph import theory
from supergraph.config import LimitProfile, SizeConfiguration, empirical_profile, \
    power_law_configuration
from supergraph.theory import (critical_threshold, degree_pmf_cutoff, degree_pmf_head,
                               expected_isolated, is_supercritical,
                               limit_connectivity_probability, limit_kernel, lumped_pmf,
                               mixed_poisson_pmf, mixed_poisson_tail, poisson_pmf,
                               solve_giant_fraction, variance_isolated)

PROFILE_HOMOG = LimitProfile.from_weights({1: 1.0})
PROFILE_HALF = LimitProfile.from_weights({1: 0.5, 2: 0.5})


class TestIsolatedMoments:
    def test_expected_hand_value(self):
        # three singletons at p=1/2: each isolated with probability (1/2)^2
        assert expected_isolated(SizeConfiguration({1: 3}), 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_expected_boundaries(self):
        cfg = SizeConfiguration({1: 4, 2: 3})
        assert expected_isolated(cfg, 0.0) == 7
        assert expected_isolated(cfg, 1.0) == 0.0

    def test_variance_boundaries(self):
        cfg = SizeConfiguration({1: 4, 2: 3})
        assert variance_isolated(cfg, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert variance_isolated(cfg, 1.0) == 0.0

    def test_variance_two_singletons(self):
        # one potential edge: X is 0 or 2 with equal probability, Var = 1
        assert variance_isolated(SizeConfiguration({1: 2}), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_variance_mixed_config_vs_enumeration(self):
        cfg = {1: 2, 2: 1}
        expected, variance = enumerate_isolated_moments(cfg, 0.3)
        got_e = expected_isolated(SizeConfiguration(cfg), 0.3)
        got_v = variance_isolated(SizeConfiguration(cfg), 0.3)
        assert got_e == pytest.approx(expected, abs=1e-12)
        assert got_v == pytest.approx(variance, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_all_small_configs_match_enumeration(self, p):
        # exhaustive oracle over every config with N <= 4 on sizes {1,2,3}
        for counts in small_configs(4):
            cfg = SizeConfiguration(counts)
            expected, variance = enumerate_isolated_moments(counts, p)
            assert expected_isolated(cfg, p) == pytest.approx(expected, abs=1e-10), counts
            assert variance_isolated(cfg, p) == pytest.approx(variance, abs=1e-10), counts

    def test_no_overflow_for_extreme_inputs(self):
        # single huge super-vertex and p near 1: must stay finite
        assert variance_isolated(SizeConfiguration({50: 1}), 0.999999) == 0.0
        value = variance_isolated(SizeConfiguration({1: 1, 50: 1}), 0.999999)
        assert math.isfinite(value)
        value = variance_isolated(SizeConfiguration({1: 2000, 2: 500}), 0.01)
        assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("counts,p", [
        ({1: 10 ** 6}, 1e-9),
        ({1: 10 ** 6}, 1e-12),
        ({1: 2000, 2: 10 ** 6}, 1e-13),
        ({1: 10 ** 7}, 1e-14),
        ({1: 10 ** 6}, math.log(10 ** 6) / 10 ** 6),
    ])
    def test_variance_at_small_p_vs_decimal(self, counts, p):
        # on the first four, V formed from E[X] and differences of nearly equal
        # powers of 1-p is off by 2e-8 to 6e-5
        want = decimal_isolated_variance(counts, p)
        assert variance_isolated(SizeConfiguration(counts), p) == pytest.approx(
            want, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.dictionaries(st.integers(1, 50), st.integers(1, 10 ** 6),
                                  min_size=1, max_size=4),
           log_p=st.floats(math.log(1e-15), math.log(1e-2)))
    def test_variance_vs_decimal(self, counts, log_p):
        p = math.exp(log_p)
        want = decimal_isolated_variance(counts, p)
        assume(want >= 1e-250)
        # exp(x) carries the relative error |x| * 2^-53 of its argument
        assert variance_isolated(SizeConfiguration(counts), p) == pytest.approx(
            want, rel=1e-12, abs=0.0)


class TestConnectivityLimit:
    def test_fixed_c_zero_u_one(self):
        got = limit_connectivity_probability(0.0, 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_minus_infinity_ignores_u(self):
        assert limit_connectivity_probability(-math.inf, 2.0) == 0.0
        assert limit_connectivity_probability(-math.inf, 1.0) == 0.0

    def test_fixed_c_five(self):
        got = limit_connectivity_probability(5.0, 1.0)
        assert got == pytest.approx(math.exp(-math.exp(-5.0)), abs=1e-15)

    def test_u_above_one_gives_one(self):
        assert limit_connectivity_probability(0.0, 1.5) == 1.0
        assert limit_connectivity_probability(-10.0, 2.0) == 1.0

    def test_plus_infinity(self):
        assert limit_connectivity_probability(math.inf, 1.0) == 1.0
        assert limit_connectivity_probability(math.inf, 2.0) == 1.0

    def test_u_equals_one_numeric_tolerance(self):
        got = limit_connectivity_probability(1.0, 1.0 + 1e-12)
        assert got == pytest.approx(math.exp(-math.exp(-1.0)), abs=1e-12)

    def test_monotone_in_c_at_u_one(self):
        values = [limit_connectivity_probability(c, 1.0)
                  for c in (-math.inf, -3, -1, 0, 1, 2, 5, 10, math.inf)]
        assert values[0] == 0.0 and values[-1] == 1.0
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bad_arguments(self):
        for c, u in ((math.nan, 1.0), (math.nan, 2.0), (0.0, math.nan), (0.0, math.inf),
                     (-math.inf, math.nan), (math.inf, math.inf), (0.0, 0.5)):
            with pytest.raises(ValueError):
                limit_connectivity_probability(c, u)


class TestKernel:
    def test_values(self):
        assert limit_kernel(1, 1, 1.0, 1.0) == 1.0
        assert limit_kernel(2, 3, 2.0, 1.5) == pytest.approx(8.0, abs=1e-15)
        assert limit_kernel(4, 9, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize("c,u", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (1.0, math.inf), (-1.0, 1.0), (1.0, 0.5)])
    def test_rejects_nonfinite_or_out_of_range(self, c, u):
        with pytest.raises(ValueError):
            limit_kernel(1, 1, c, u)


class TestCriticalThreshold:
    def test_homogeneous_collapses_to_classic(self):
        assert critical_threshold(PROFILE_HOMOG) == 1.0

    def test_two_sizes(self):
        assert critical_threshold(PROFILE_HALF) == pytest.approx(0.6, abs=1e-15)

    def test_single_size_three(self):
        prof = LimitProfile.from_weights({3: 1.0})
        assert critical_threshold(prof) == pytest.approx(1 / 3, abs=1e-15)

    def test_boundary_counts_subcritical(self):
        c_star = critical_threshold(PROFILE_HALF)
        assert not is_supercritical(PROFILE_HALF, c_star)
        assert is_supercritical(PROFILE_HALF, c_star + 1e-9)


class TestGiantFixedPoint:
    def test_homogeneous_c2(self):
        oracle = bisect_homogeneous_survival(2.0)
        solution = solve_giant_fraction(PROFILE_HOMOG, 2.0)
        assert solution.rho == pytest.approx(oracle, abs=1e-8)
        assert solution.rho == pytest.approx(0.796812, abs=5e-7)
        assert solution.residual <= 1e-12

    @pytest.mark.parametrize("c", [1.1, 1.5, 2.0, 3.0])
    def test_homogeneous_collapse_across_c(self, c):
        oracle = bisect_homogeneous_survival(c)
        assert solve_giant_fraction(PROFILE_HOMOG, c).rho == pytest.approx(oracle, abs=1e-8)

    def test_subcritical_exactly_zero(self):
        solution = solve_giant_fraction(PROFILE_HALF, 0.5)
        assert solution.rho == 0.0
        assert all(v == 0.0 for v in solution.rho_by_size.values())
        assert solve_giant_fraction(PROFILE_HOMOG, 1.0).rho == 0.0

    def test_threshold_bracketing(self):
        c_star = critical_threshold(PROFILE_HALF)
        assert solve_giant_fraction(PROFILE_HALF, c_star - 0.05).rho == 0.0
        assert solve_giant_fraction(PROFILE_HALF, c_star + 0.05).rho > 0.0

    def test_two_type_against_damped_newton(self):
        solution = solve_giant_fraction(PROFILE_HALF, 1.2)
        oracle = newton_two_type(PROFILE_HALF.mu, PROFILE_HALF.u, 1.2)
        for i in (1, 2):
            assert solution.rho_by_size[i] == pytest.approx(oracle[i], abs=1e-10)
        rho_oracle = sum(oracle[i] * PROFILE_HALF.mu[i] for i in (1, 2))
        assert solution.rho == pytest.approx(rho_oracle, abs=1e-10)

    def test_rho_nondecreasing_in_c(self):
        values = [solve_giant_fraction(PROFILE_HALF, c).rho for c in (0.4, 0.7, 1.0, 1.5, 2.5)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rho_nondecreasing_in_size(self):
        prof = LimitProfile.from_weights({1: 0.5, 2: 0.3, 5: 0.2})
        solution = solve_giant_fraction(prof, 1.0)
        rho = [solution.rho_by_size[i] for i in sorted(solution.rho_by_size)]
        assert all(a <= b for a, b in zip(rho, rho[1:]))
        assert solution.rho > 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solve_giant_fraction(PROFILE_HOMOG, -1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            solve_giant_fraction(PROFILE_HOMOG, c)
        with pytest.raises(ValueError, match="c must be finite"):
            degree_pmf_cutoff(PROFILE_HOMOG, c)

    def test_non_convergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(theory, "_SOLVER_MAX_STEPS", 2)
        with pytest.raises(RuntimeError, match=r"in 2 iterations .*residual=\d"):
            solve_giant_fraction(PROFILE_HOMOG, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(counts=st.dictionaries(st.integers(1, 200), st.integers(1, 1000),
                                  min_size=1, max_size=5),
           log_eps=st.floats(math.log(1e-9), math.log(10.0)))
    def test_critical_window_against_bisection(self, counts, log_eps):
        # near c* one rounding of f moves the root by about 1e-16/eps (relative),
        # so the bound follows that conditioning; far from c* it is a few ulps
        total = sum(counts.values())
        profile = LimitProfile.from_weights({i: k / total for i, k in counts.items()})
        eps = math.exp(log_eps)
        c = critical_threshold(profile) * (1.0 + eps)
        solution = solve_giant_fraction(profile, c)
        want = bisect_giant_fraction(profile.mu, c)
        assert solution.iterations <= 100
        rel = min(1e-6, 1e-15 / eps + 1e-14)
        assert solution.rho == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-11, 1e-12, 1e-13])
    def test_resolves_a_root_below_tol(self, eps):
        # S* is about 1e-12 here: tol bounds the step relative to S, not absolutely
        c = critical_threshold(PROFILE_HALF) * (1.0 + eps)
        want = bisect_giant_fraction(PROFILE_HALF.mu, c)
        rho = solve_giant_fraction(PROFILE_HALF, c).rho
        assert rho == pytest.approx(want, rel=1e-2, abs=0.0)

    @pytest.mark.parametrize("counts", [
        {1: 1}, {1: 1, 2: 1}, {1: 5, 2: 3, 5: 2},
        {1: 1, 50: 1},  # rounding throws a Newton step out of (0, S]
        {8: 1, 37: 2},  # rounding hides the root: S runs down through the subnormals
    ])
    def test_one_ulp_above_threshold(self, counts):
        total = sum(counts.values())
        profile = LimitProfile.from_weights({i: k / total for i, k in counts.items()})
        c = math.nextafter(critical_threshold(profile), math.inf)
        assert is_supercritical(profile, c)
        solution = solve_giant_fraction(profile, c)
        assert math.isfinite(solution.rho) and 0.0 <= solution.rho < 1e-9
        assert solution.iterations <= 1100


class TestMixedPoisson:
    def test_single_poisson_at_zero(self):
        assert mixed_poisson_pmf(PROFILE_HOMOG, 1.0, 0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_mixture_at_zero(self):
        want = 0.5 * math.exp(-1) + 0.5 * math.exp(-2)
        assert mixed_poisson_pmf(PROFILE_HALF, 1.0, 0) == pytest.approx(want, abs=1e-12)
        assert mixed_poisson_pmf(PROFILE_HALF, 1.0, 0) == pytest.approx(0.2516074, abs=1e-6)

    def test_normalization(self):
        r, c = 2, 1.0
        k_cap = 20 * (r * int(c) + 1)
        total = math.fsum(mixed_poisson_pmf(PROFILE_HALF, c, k) for k in range(k_cap))
        assert abs(total - 1.0) < 1e-12

    def test_mean_is_c_times_u(self):
        for prof, c in ((PROFILE_HALF, 1.3), (PROFILE_HOMOG, 2.0)):
            k_cap = degree_pmf_cutoff(prof, c, 1e-15)
            mean = math.fsum(k * mixed_poisson_pmf(prof, c, k) for k in range(k_cap))
            assert mean == pytest.approx(c * prof.u, abs=1e-8)

    def test_sums_to_one_within_1e10(self):
        k_cap = degree_pmf_cutoff(PROFILE_HALF, 1.0, 1e-12)
        total = math.fsum(mixed_poisson_pmf(PROFILE_HALF, 1.0, k) for k in range(k_cap))
        assert abs(total - 1.0) < 1e-10

    def test_poisson_pmf_stable_at_large_k(self):
        value = poisson_pmf(5.0, 200)
        assert 0.0 < value < 1e-100  # log-gamma path, no overflow to 0/inf

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_poisson_pmf_rejects_nonfinite_or_negative_rate(self, lam):
        with pytest.raises(ValueError):
            poisson_pmf(lam, 3)

    def test_tail_values(self):
        assert mixed_poisson_tail(PROFILE_HALF, 1.0, 0) == 1.0
        want = 1 - math.exp(-1)
        assert mixed_poisson_tail(PROFILE_HOMOG, 1.0, 1) == pytest.approx(want, abs=1e-12)

    def test_tail_complements_pmf(self):
        for k in range(6):
            head = math.fsum(mixed_poisson_pmf(PROFILE_HALF, 1.0, j) for j in range(k))
            assert mixed_poisson_tail(PROFILE_HALF, 1.0, k) == pytest.approx(1 - head, abs=1e-12)

    def test_power_law_tail_scaling(self):
        # the size tail is k^-2 by construction; the degree tail at c=1
        # then keeps k^2 * P(Xi >= k) within 25% of its mean on 5..20
        cfg = power_law_configuration(100_000, 2.0, 50)
        prof = empirical_profile(cfg)
        values = [k * k * mixed_poisson_tail(prof, 1.0, k) for k in range(5, 21)]
        mean = sum(values) / len(values)
        assert all(abs(v - mean) <= 0.25 * mean for v in values)

    def test_head_is_the_pmf_below_the_cutoff(self):
        prof = empirical_profile(power_law_configuration(10_000, 2.0, 30))
        head = degree_pmf_head(prof, 1.3, 1e-9)
        assert len(head) == degree_pmf_cutoff(prof, 1.3, 1e-9)
        assert head == [mixed_poisson_pmf(prof, 1.3, k) for k in range(len(head))]

    def test_cutoff_rule(self):
        cutoff = degree_pmf_cutoff(PROFILE_HALF, 1.0)
        assert mixed_poisson_tail(PROFILE_HALF, 1.0, cutoff) < 1e-9
        assert mixed_poisson_tail(PROFILE_HALF, 1.0, cutoff - 1) >= 1e-9

    def test_lumped_pmf_appends_the_tail(self):
        # at lam = 1 the naive running total and fsum of the head differ in the last bits
        lumped = lumped_pmf(lambda k: poisson_pmf(1.0, k))
        cutoff = len(lumped) - 1
        assert lumped[:-1] == [poisson_pmf(1.0, k) for k in range(cutoff)]
        assert lumped[-1] == mixed_poisson_tail(PROFILE_HOMOG, 1.0, cutoff)
        assert 0.0 <= lumped[-1] < 1e-9
        assert math.fsum(lumped) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("tail_below", [math.nan, 0.0, -1.0, 1.0])
    def test_tail_below_outside_unit_interval(self, tail_below):
        with pytest.raises(ValueError, match="tail_below"):
            lumped_pmf(lambda k: poisson_pmf(1.0, k), tail_below)
        with pytest.raises(ValueError, match="tail_below"):
            degree_pmf_head(PROFILE_HALF, 1.0, tail_below)
