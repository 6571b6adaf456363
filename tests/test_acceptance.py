"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds, so outcomes are deterministic;
tolerances are the stated 3-sigma binomial/normal bounds computed from each
run itself. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import math
import time

import pytest

from oracles import bisect_homogeneous_survival, enumerate_isolated_moments, small_configs
from supergraph import rng, theory
from supergraph.config import SizeConfiguration, power_law_configuration
from supergraph.montecarlo import (ExperimentPlan, run_connectivity_experiment,
                                   run_degree_experiment, run_giant_experiment)
from supergraph.sampler import edge_probability, resolve_p, sample_constructive, sample_direct


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)
    return ok


def _plan(counts, regime, c, trials, seed, experiment):
    return ExperimentPlan(config=SizeConfiguration(counts), regime=regime, c=c,
                          trials=trials, seed=seed, experiment=experiment)


@pytest.fixture(scope="module")
def connectivity_run_c0():
    """Shared by criteria 1 and 4: {1:5000}, c=0, 2000 trials."""
    start = time.perf_counter()
    report = run_connectivity_experiment(
        _plan({1: 5000}, "connectivity", 0.0, 2000, 1, "connectivity"))
    return report, time.perf_counter() - start


def test_criterion_01_connectivity_limit(connectivity_run_c0):
    report, wall = connectivity_run_c0
    p_hat, se = report.estimates["p_connected"]
    target = math.exp(-1.0)
    tol = 3.0 * se
    ok = abs(p_hat - target) <= tol and wall < 120.0
    assert _line(1, "connectivity-limit", ok,
                 f"p_hat={p_hat:.4f} target={target:.4f} tol={tol:.4f} wall={wall:.1f}s")


def test_criterion_02_supercritical_u_above_one():
    report = run_connectivity_experiment(
        _plan({2: 2000}, "connectivity", 0.0, 500, 2, "connectivity"))
    p_hat = report.estimates["p_connected"][0]
    ok = p_hat >= 0.99
    assert _line(2, "supercritical-u>1", ok, f"p_hat={p_hat:.4f} >= 0.99")


def test_criterion_03_subcritical_disconnection():
    report = run_connectivity_experiment(
        _plan({1: 5000}, "connectivity", -3.0, 500, 3, "connectivity"))
    p_hat = report.estimates["p_connected"][0]
    ok = p_hat <= 0.01
    assert _line(3, "subcritical-disconnection", ok, f"p_hat={p_hat:.4f} <= 0.01")


def test_criterion_04_isolated_poisson_law(connectivity_run_c0):
    report, _ = connectivity_run_c0
    tv = report.estimates["tv_isolated_poisson"][0]
    x_bar, se = report.estimates["isolated_mean"]
    expected = report.theory["expected_isolated"]
    ok = tv <= 0.1 and abs(x_bar - expected) <= 3.0 * se
    assert _line(4, "isolated-poisson-law", ok,
                 f"TV={tv:.4f} <= 0.1, |{x_bar:.4f} - {expected:.4f}| <= {3 * se:.4f}")


def test_criterion_05_exact_moment_oracle():
    start = time.perf_counter()
    worst = 0.0
    for counts in small_configs(4):
        cfg = SizeConfiguration(counts)
        for p in (0.1, 0.3, 0.5, 0.9):
            e_ref, v_ref = enumerate_isolated_moments(counts, p)
            worst = max(worst,
                        abs(theory.expected_isolated(cfg, p) - e_ref),
                        abs(theory.variance_isolated(cfg, p) - v_ref))
    wall = time.perf_counter() - start
    ok = worst <= 1e-10 and wall < 1.0
    assert _line(5, "exact-moment-oracle", ok,
                 f"max |closed-form - enumeration| = {worst:.2e}, wall={wall:.2f}s")


def test_criterion_06_giant_homogeneous():
    start = time.perf_counter()
    report = run_giant_experiment(_plan({1: 100_000}, "sparse", 2.0, 20, 6, "giant"))
    wall = time.perf_counter() - start
    l1 = report.estimates["l1_fraction"][0]
    l2 = report.estimates["l2_fraction"][0]
    target = bisect_homogeneous_survival(2.0)
    ok = abs(l1 - target) <= 0.02 and l2 <= 0.01 and wall < 60.0
    assert _line(6, "giant-homogeneous", ok,
                 f"L1/N={l1:.4f} target={target:.6f} L2/N={l2:.5f} wall={wall:.1f}s")


def test_criterion_07_threshold_location():
    counts = {1: 50_000, 2: 50_000}
    sub = run_giant_experiment(_plan(counts, "sparse", 0.5, 20, 7, "giant"))
    sup = run_giant_experiment(_plan(counts, "sparse", 1.2, 20, 7, "giant"))
    l1_sub = sub.estimates["l1_fraction"][0]
    l1_sup = sup.estimates["l1_fraction"][0]
    rho = sup.theory["rho"]
    c_star = sup.theory["c_star"]
    # the supercritical match doubles as the adjudication of the
    # fixed-point-equation form (size factor inside versus outside)
    ok = (abs(c_star - 0.6) < 1e-12 and l1_sub <= 0.05 and abs(l1_sup - rho) <= 0.03)
    assert _line(7, "threshold-location", ok,
                 f"c*={c_star:.3f}, L1/N(c=0.5)={l1_sub:.4f} <= 0.05, "
                 f"L1/N(c=1.2)={l1_sup:.4f} vs rho={rho:.4f} +- 0.03")


def test_criterion_08_degree_law():
    report = run_degree_experiment(_plan({1: 50_000, 2: 50_000}, "sparse", 1.0, 10, 8, "degree"))
    tv = report.estimates["tv_degree"][0]
    pmf0 = report.distributions["degree_hist"][0]
    target0 = 0.5 * math.exp(-1.0) + 0.5 * math.exp(-2.0)
    ok = tv <= 0.02 and abs(pmf0 - target0) <= 0.01
    assert _line(8, "degree-law", ok,
                 f"TV={tv:.4f} <= 0.02, pmf0={pmf0:.4f} vs {target0:.4f} +- 0.01")


def test_criterion_09_power_law_tail():
    cfg = power_law_configuration(100_000, 2.0, 50)
    plan = ExperimentPlan(config=cfg, regime="sparse", c=1.0, trials=10, seed=9,
                          experiment="degree")
    report = run_degree_experiment(plan)
    tails = report.distributions["degree_tail_empirical"]
    values = [k * k * tails[k] for k in range(5, 21)]
    mean = sum(values) / len(values)
    max_dev = max(abs(v - mean) / mean for v in values)
    tv = report.estimates["tv_degree"][0]
    ok = max_dev <= 0.30 and tv <= 0.03
    assert _line(9, "power-law-tail", ok,
                 f"k^2*tail dev={max_dev:.1%} <= 30% over k=5..20, TV={tv:.4f} <= 0.03")


def test_criterion_10_sampler_equivalence():
    cfg = SizeConfiguration({1: 1, 2: 1, 3: 1})
    params = resolve_p("raw", 0.1, cfg)
    trials = 100_000
    targets = {(0, 1): edge_probability(1, 2, 0.1),
               (0, 2): edge_probability(1, 3, 0.1),
               (1, 2): edge_probability(2, 3, 0.1)}
    assert targets[(1, 2)] == pytest.approx(0.468559, abs=5e-7)
    ok = True
    detail = []
    for name, sampler in (("direct", sample_direct), ("constructive", sample_constructive)):
        hits = {pair: 0 for pair in targets}
        for t in range(trials):
            graph = sampler(cfg, params, rng.stream_root(10, t))
            for u, v in graph.edges.tolist():
                hits[(u, v)] += 1
        for pair, target in targets.items():
            freq = hits[pair] / trials
            tol = 3.0 * math.sqrt(target * (1.0 - target) / trials)
            ok = ok and abs(freq - target) <= tol
            detail.append(f"{name}{pair}={freq:.4f}~{target:.4f}")
    assert _line(10, "sampler-equivalence", ok, ", ".join(detail))


def test_criterion_11_linear_scaling():
    times = {}
    for n in (10_000, 100_000, 1_000_000):
        cfg = SizeConfiguration({1: n})
        params = resolve_p("sparse", 1.0, cfg)
        sample_direct(cfg, params, 10)  # warm allocator and code paths
        best = math.inf
        for rep in range(5):
            start = time.perf_counter()
            sample_direct(cfg, params, 11 + rep)
            best = min(best, time.perf_counter() - start)
        times[n] = best
    # each tenfold input step may cost between 5x and 20x: within a factor
    # 2 of linear, which rules out quadratic pair enumeration
    r1 = times[100_000] / times[10_000]
    r2 = times[1_000_000] / times[100_000]
    ok = 5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0 and times[1_000_000] < 10.0
    assert _line(11, "linear-scaling", ok,
                 f"t={[f'{1e3 * times[n]:.1f}ms' for n in times]}, "
                 f"decade ratios {r1:.1f}, {r2:.1f} in [5, 20], "
                 f"t(1e6)={times[1_000_000]:.2f}s < 10s")
