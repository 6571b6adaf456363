"""Monte Carlo experiments over G(N, K, p) with theory comparisons.

``run_experiment(plan)`` is the one entry point: ``plan.experiment`` names
the experiment (connectivity, giant or degree) and the report carries that
name.

Trials draw from per-trial RNG streams (master seed, trial index) and are
aggregated in trial order, so reports never depend on the worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import rng, theory
from .config import LimitProfile, SizeConfiguration, empirical_profile
from .graph import connected_components, degrees
from .sampler import ModelParams, _check_seed, resolve_p, sample_direct
from .theory import TAIL_LUMP  # noqa: F401  (perfbench/tracing.py imports it from here)

# Trials run on a thread pool, one worker per usable CPU and trial, once the mean
# size class (the side of a typical kernel block) has this many super-vertices;
# shorter numpy calls do not pay for a second thread. 2-worker speed-up on 2 vCPUs
# (2-3 sweeps) by mean class size: 1000: 0.67-0.86, 1724 (58 classes, N = 100k):
# 0.80-0.84 with a kernel loop per block, 0.87-0.95 with all blocks in one pass,
# 10^4: 0.86-0.96, 2^14: 0.79-1.04, 2^15: 0.88-1.19, 2^16: 1.12-1.74.
_POOL_MIN_CLASS_SIZE = 1 << 15


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: configuration, parameterization, trial count, seed, experiment."""

    config: SizeConfiguration
    regime: str
    c: float
    trials: int
    seed: int
    experiment: str

    def __post_init__(self):
        trials = self.trials
        if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        object.__setattr__(self, "trials", int(trials))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def params(self) -> ModelParams:
        return resolve_p(self.regime, self.c, self.config)


@dataclass(frozen=True)
class ExperimentReport:
    """Estimates with uncertainty, theory values, and per-trial records.

    estimates maps name -> (value, standard error); the error is None for
    derived scalars such as total-variation distances that carry no
    per-trial variance. distributions hold pmfs over integer support, with
    mass beyond the truncation point lumped into the final key.
    """

    experiment: str
    estimates: dict[str, tuple[float, float | None]]
    theory: dict[str, float]
    distributions: dict[str, dict[int, float]] = field(default_factory=dict)
    trial_stats: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)


def total_variation(pmf_a: dict[int, float], pmf_b: dict[int, float]) -> float:
    """(1/2) sum_k |a_k - b_k| over the union of supports."""
    for name, pmf in (("first", pmf_a), ("second", pmf_b)):
        if any(not math.isfinite(v) or v < 0 for v in pmf.values()):
            raise ValueError(f"{name} pmf has a negative or non-finite mass")
        total = math.fsum(pmf.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"{name} pmf sums to {total}, above 1")
    support = set(pmf_a) | set(pmf_b)
    return 0.5 * math.fsum(abs(pmf_a.get(k, 0.0) - pmf_b.get(k, 0.0)) for k in support)


def _worker_count(plan: ExperimentPlan) -> int:
    if plan.config.num_super / len(plan.config.counts) < _POOL_MIN_CLASS_SIZE:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), plan.trials)
    return min(os.cpu_count() or 1, plan.trials)


def _run_trials(plan: ExperimentPlan, params: ModelParams, degree_cutoff: int | None = None):
    """Sample and analyse all trials, then run the isolated-count guard.

    Returns the per-trial record {"connected", "isolated", "L1", "L2"} and,
    given degree_cutoff, the degree counts summed over trials and lumped at
    the cutoff (otherwise None).
    """
    def one(t: int):
        graph = sample_direct(plan.config, params, rng.stream_root(plan.seed, t))
        summary = connected_components(graph)
        sizes = summary.sizes_desc
        hist = None
        if degree_cutoff is not None:
            hist = _lump_counts(degrees(graph), degree_cutoff)
        l2 = int(sizes[1]) if sizes.shape[0] > 1 else 0
        return sizes.shape[0] == 1, summary.isolated_count, int(sizes[0]), l2, hist

    workers = _worker_count(plan)
    if workers == 1:
        results = [one(t) for t in range(plan.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(plan.trials)))

    trial_stats = {
        "connected": np.array([r[0] for r in results], dtype=np.int8),
        "isolated": np.array([r[1] for r in results], dtype=np.int64),
        "L1": np.array([r[2] for r in results], dtype=np.int64),
        "L2": np.array([r[3] for r in results], dtype=np.int64),
    }
    _check_isolated_estimator(plan, params, trial_stats["isolated"])
    degree_counts = None if degree_cutoff is None else sum(r[4] for r in results)
    return trial_stats, degree_counts


def _mean_se(values: np.ndarray) -> tuple[float, float | None]:
    mean = float(values.mean())
    if values.shape[0] < 2:
        return mean, None
    return mean, float(values.std(ddof=1) / math.sqrt(values.shape[0]))


def _binomial_se(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def _variance_se(values: np.ndarray) -> tuple[float, float | None]:
    t = values.shape[0]
    if t < 2:
        return 0.0, None
    s2 = float(values.var(ddof=1))
    centered = values - values.mean()
    m4 = float((centered ** 4).mean())
    var_of_s2 = max(m4 - s2 * s2 * (t - 3) / (t - 1), 0.0) / t
    return s2, math.sqrt(var_of_s2)


def _check_isolated_estimator(plan, params, isolated: np.ndarray) -> None:
    """Abort when the isolated-count mean drifts beyond 4 standard errors."""
    t = isolated.shape[0]
    if t < 500:
        return
    expected = theory.expected_isolated(plan.config, params.p)
    x_bar = float(isolated.mean())
    se = float(isolated.std(ddof=1)) / math.sqrt(t)
    # sqrt(E/T) floors the error scale when the sample happens to be constant
    guard = 4.0 * max(se, math.sqrt(max(expected, 0.0) / t))
    if abs(x_bar - expected) > guard:
        raise RuntimeError(
            "isolated-count estimator failed its sanity check: "
            f"mean={x_bar:.6g} expected={expected:.6g} guard={guard:.3g} "
            f"(config N={plan.config.num_super}, p={params.p:.6g}, trials={t}, "
            f"seed={plan.seed})")


def _lump_counts(values: np.ndarray, cutoff: int) -> np.ndarray:
    """Counts of integer samples by value, values >= cutoff lumped at cutoff."""
    return np.bincount(np.minimum(values, cutoff), minlength=cutoff + 1)


def _connectivity(plan: ExperimentPlan, params: ModelParams, profile: LimitProfile):
    """P(connected) and the isolated-count law near the threshold.

    Compares P_hat(connected) against the limit exp(-exp(-c)) (u = 1 clause)
    and the empirical distribution of the isolated count X against
    Poisson(E[X]) with the exact finite-N mean.
    """
    cfg = plan.config
    n_super = cfg.num_super
    trial_stats, _ = _run_trials(plan, params)
    isolated = trial_stats["isolated"]

    # equivalent connectivity-regime constant for the resolved p
    c_conn = params.p * n_super - math.log(n_super)
    expected = theory.expected_isolated(cfg, params.p)

    poisson_ref = dict(enumerate(theory.lumped_pmf(partial(theory.poisson_pmf, expected))))
    cutoff = max(poisson_ref)
    weight = 1.0 / plan.trials
    empirical = {k: float(c) * weight for k, c in enumerate(_lump_counts(isolated, cutoff))}
    tv = total_variation(empirical, poisson_ref)

    p_hat = float(trial_stats["connected"].mean())
    estimates = {
        "p_connected": (p_hat, _binomial_se(p_hat, plan.trials)),
        "isolated_mean": _mean_se(isolated.astype(np.float64)),
        "isolated_variance": _variance_se(isolated.astype(np.float64)),
        "tv_isolated_poisson": (tv, None),
    }
    theory_block = {
        "p_connected_limit": theory.limit_connectivity_probability(c_conn, profile.u),
        "isolated_mean_limit": math.exp(-c_conn),
        "expected_isolated": expected,
        "variance_isolated": theory.variance_isolated(cfg, params.p),
        "c_connectivity": c_conn,
    }
    distributions = {"isolated_empirical": empirical, "isolated_poisson": poisson_ref}
    return estimates, theory_block, distributions, trial_stats


def _giant(plan: ExperimentPlan, params: ModelParams, profile: LimitProfile):
    """L1/N and L2/N at p = c/n against the fixed-point fraction rho."""
    trial_stats, _ = _run_trials(plan, params)
    n_super = plan.config.num_super
    c_sparse = params.p * plan.config.num_vertices
    estimates = {
        "l1_fraction": _mean_se(trial_stats["L1"] / n_super),
        "l2_fraction": _mean_se(trial_stats["L2"] / n_super),
    }
    theory_block = {
        "rho": theory.solve_giant_fraction(profile, c_sparse).rho,
        "c_star": theory.critical_threshold(profile),
        "c_sparse": c_sparse,
        "s2": profile.s2,
    }
    return estimates, theory_block, {}, trial_stats


def _degree(plan: ExperimentPlan, params: ModelParams, profile: LimitProfile):
    """The degree law Z_k/N at p = c/n against the mixed Poisson."""
    c_sparse = params.p * plan.config.num_vertices
    pmf_lumped = theory.lumped_pmf(partial(theory.mixed_poisson_pmf, profile, c_sparse))
    cutoff = len(pmf_lumped) - 1
    trial_stats, totals = _run_trials(plan, params, degree_cutoff=cutoff)

    # average Z_k/N over trials; the counts are exact integers
    weight = 1.0 / (plan.trials * plan.config.num_super)
    empirical = {k: float(v) * weight for k, v in enumerate(totals)}

    pmf_theory = dict(enumerate(pmf_lumped))
    # the tails theory.mixed_poisson_tail gives, from the pmf already at hand
    tail_th = {k: theory.tail_mass(pmf_lumped[:k]) for k in range(cutoff + 1)}
    tv = total_variation(empirical, pmf_theory)

    tail_emp = {}
    running = 0.0
    for k in range(cutoff, -1, -1):
        running += empirical[k]
        tail_emp[k] = min(running, 1.0)
    tail_emp = dict(sorted(tail_emp.items()))

    estimates = {"tv_degree": (tv, None)}
    theory_block = {
        "mean_degree": c_sparse * profile.u,
        "c_sparse": c_sparse,
        "k_max": float(cutoff),
    }
    distributions = {
        "degree_hist": empirical,
        "degree_theory": pmf_theory,
        "degree_tail_empirical": tail_emp,
        "degree_tail_theory": tail_th,
    }
    return estimates, theory_block, distributions, trial_stats


EXPERIMENTS = {"connectivity": _connectivity, "giant": _giant, "degree": _degree}


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Run the experiment that plan.experiment names and report it."""
    start = time.perf_counter()
    params = plan.params()
    cfg = plan.config
    estimates, theory_block, distributions, trial_stats = EXPERIMENTS[plan.experiment](
        plan, params, empirical_profile(cfg))
    meta = {
        "experiment": plan.experiment,
        "N": cfg.num_super,
        "n": cfg.num_vertices,
        "regime": plan.regime,
        "c": plan.c,
        "p": params.p,
        "trials": plan.trials,
        "seed": plan.seed,
        "wall_time": time.perf_counter() - start,
    }
    return ExperimentReport(experiment=plan.experiment, estimates=estimates,
                            theory=theory_block, distributions=distributions,
                            trial_stats=trial_stats, meta=meta)
