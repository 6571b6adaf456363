"""Monte Carlo experiments over G(N, K, p) with theory comparisons.

``run_experiment(plan)`` is the one entry point: ``plan.experiment`` names
the experiment (connectivity, giant or degree) and the report carries that
name.

Trials draw from per-trial RNG streams (master seed, trial index) and are
aggregated in trial order, so reports never depend on the worker count.

A trial reads the sampling kernel's edge arrays directly: component sizes,
the isolated count, L1, L2 and degree counts do not depend on edge order, so
no trial builds a ``SuperGraph``. ``sample_direct`` and
``graph.connected_components`` stay the public path, and ``SuperGraph`` is
the export path of ``generate``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels, rng, theory
from .config import LimitProfile, SizeConfiguration, empirical_profile
from .graph import _component_sizes
from .sampler import ModelParams, _check_num_super, _check_seed, resolve_p
from .theory import TAIL_LUMP  # noqa: F401  (perfbench/tracing.py imports it from here)

# Trials run on a thread pool, one worker per usable CPU and trial, once the mean
# size class (the side of a typical kernel block) has this many super-vertices;
# shorter numpy calls do not pay for a second thread. 2-worker speed-up on 2 vCPUs
# with labelling by piece sweeps (medians of 11 alternated pairs, two sweeps): giant
# at c = 2 on {1: 5000} x 20 trials 0.57, on {1: 2^14} x 20 0.94-1.07, on
# {1: 500000} x 3 1.38-1.45; 500 connectivity trials on {1: 1000} 0.44-0.49. The
# 4-trial degree run on the 58-class N = 100k graph (mean 1724, classes far from
# equal) read 1.30-1.35, 1.17-1.24 with its predicts (41 alternated pairs, two sets),
# but its peak RSS rose from 40.1 to 45.7-46.4 MiB, so it keeps one worker.
_POOL_MIN_CLASS_SIZE = 1 << 14


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

    Trial t writes row t of one (trials, width) int64 table: the isolated count, L1, L2,
    then (given degree_cutoff) its degree counts lumped at the cutoff. Rows are disjoint,
    so pooled trials share the table. The per-trial record {"connected", "isolated",
    "L1", "L2"} and the degree counts summed over trials (or None) come off the table.
    """
    n = plan.config.num_super
    classes = plan.config.size_classes()
    table = np.empty((plan.trials, 3 if degree_cutoff is None else degree_cutoff + 4), np.int64)

    def one(t: int) -> None:
        eu, ev = kernels.sample_edges(*classes, params.p, rng.stream_root(plan.seed, t))
        sizes = _component_sizes(n, eu, ev)
        # the largest two sizes, in order, at the end; one component leaves L2 = 0
        top = np.partition(sizes, -2)[-2:] if sizes.shape[0] > 1 else (0, sizes[0])
        table[t, :3] = (sizes == 1).sum(), top[1], top[0]
        if degree_cutoff is not None:
            degree = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
            table[t, 3:] = _lump_counts(degree, degree_cutoff)

    workers = _worker_count(plan)
    if workers == 1:
        for t in range(plan.trials):
            one(t)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(plan.trials)))  # reading each result re-raises its error

    isolated, l1, l2 = np.ascontiguousarray(table[:, :3].T)  # a copy: no view pins the table
    stats = {"connected": (l1 == n).astype(np.int8), "isolated": isolated, "L1": l1, "L2": l2}
    _check_isolated_estimator(plan, params, isolated)
    return stats, None if degree_cutoff is None else table[:, 3:].sum(axis=0)


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
    # equivalent connectivity-regime constant for the resolved p
    c_conn = params.p * n_super - math.log(n_super)
    expected = theory.expected_isolated(cfg, params.p)
    poisson_ref = dict(enumerate(theory.isolated_pmf(expected)))  # fails before any trial
    trial_stats, _ = _run_trials(plan, params)
    isolated = trial_stats["isolated"]

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
    head = theory.degree_pmf_head(profile, c_sparse)
    cutoff = len(head)
    trial_stats, totals = _run_trials(plan, params, degree_cutoff=cutoff)

    # average Z_k/N over trials; the counts are exact integers
    empirical = totals * (1.0 / (plan.trials * plan.config.num_super))
    # cumsum adds in order, so the tail at k sums the bins from the cutoff down to k
    tail_emp = np.minimum(np.cumsum(empirical[::-1])[::-1], 1.0)
    tail_theory = theory.tail_masses(head)
    pmf_theory = dict(enumerate(head + tail_theory[-1:]))
    hist = dict(enumerate(empirical.tolist()))

    estimates = {"tv_degree": (total_variation(hist, pmf_theory), None)}
    theory_block = {
        "mean_degree": c_sparse * profile.u,
        "c_sparse": c_sparse,
        "k_max": float(cutoff),
    }
    distributions = {
        "degree_hist": hist,
        "degree_theory": pmf_theory,
        "degree_tail_empirical": dict(enumerate(tail_emp.tolist())),
        "degree_tail_theory": dict(enumerate(tail_theory)),
    }
    return estimates, theory_block, distributions, trial_stats


EXPERIMENTS = {"connectivity": _connectivity, "giant": _giant, "degree": _degree}


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Run the experiment that plan.experiment names and report it."""
    start = time.perf_counter()
    params = plan.params()
    cfg = plan.config
    profile = empirical_profile(cfg)
    _check_num_super(cfg.num_super)  # before any reference law or array of N entries
    estimates, theory_block, distributions, trial_stats = EXPERIMENTS[plan.experiment](
        plan, params, profile)
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
