"""Correctness checks, computed apart from the program.

Every expected value here is derived from the model's definition with
numpy, scipy and the standard library: component labels from
``scipy.sparse.csgraph``, the degree law from ``scipy.stats.poisson``, the
giant-component fraction and the predict ``rho`` from bisection, and edge
counts from the pair probabilities. The program supplies only the graphs it
sampled and the outputs under test. Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse, stats
from scipy.sparse import csgraph

from supergraph import rng
from supergraph.sampler import sample_direct

Z_CONNECTED = 4.0  # binomial / normal sigmas allowed for Monte Carlo means
Z_EDGES = 5.0  # sigmas allowed for an exported edge count
GIANT_L1_TOL = 0.02
GIANT_L2_MAX = 0.01
DEGREE_TV_MAX = 0.02
RHO_REL_TOL = 1e-3  # the solver stops on a step of 1e-12, so near c* it is loose
COMPONENT_SAMPLE = 20  # trials relabelled with scipy per experiment
# how solve_giant_fraction fails at c = c* (1 + 1e-6): its iteration cap
KNOWN_FAULT_TEXT = "did not converge"


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] with f(lo) > 0 >= f(hi), to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def giant_rho(counts: dict[int, int], c: float) -> float:
    """rho of the rank-1 kernel (c/u) i j, by bisection of
    f(S) = sum_j j mu_j (1 - exp(-c j S / u)) - S on (0, u]."""
    n_super = sum(counts.values())
    mu = {i: k / n_super for i, k in counts.items()}
    u = sum(i * m for i, m in mu.items())
    s2 = sum(i * i * m for i, m in mu.items()) / u
    if c * s2 <= 1.0:
        return 0.0

    def f(s):
        return math.fsum(j * m * -math.expm1(-c * j * s / u) for j, m in mu.items()) - s

    s = _bisect(f, 1e-200, u)
    return math.fsum(m * -math.expm1(-c * i * s / u) for i, m in mu.items())


def component_stats(graph) -> dict[str, int]:
    """connected, L1, L2 and isolated count from scipy's labelling."""
    n = graph.num_super
    e = graph.edges
    adj = sparse.coo_matrix((np.ones(e.shape[0], np.int8), (e[:, 0], e[:, 1])), shape=(n, n))
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.sort(np.bincount(labels))[::-1]
    return {"connected": int(ncomp == 1), "L1": int(sizes[0]),
            "L2": int(sizes[1]) if ncomp > 1 else 0, "isolated": int((sizes == 1).sum())}


def sampled_trials(trials: int, seed: int) -> list[int]:
    """Trial 0 plus a seed-chosen sample of the others."""
    pick = np.random.default_rng(seed).permutation(trials)[:COMPONENT_SAMPLE]
    return sorted({0, *map(int, pick)})


def check_components(plan, trial_stats: dict[str, list]) -> list[str]:
    """Report per-trial components against scipy on resampled trials."""
    fails = []
    params = plan.params()
    for t in sampled_trials(plan.trials, plan.seed):
        graph = sample_direct(plan.config, params, rng.stream_root(plan.seed, t))
        want = component_stats(graph)
        got = {k: int(trial_stats[k][t]) for k in want}
        if got != want:
            fails.append(f"trial {t}: components {got} != scipy {want}")
    return fails


def check_connectivity(plan, doc: dict) -> list[str]:
    """P(connected) near exp(-exp(-c)) and the isolated mean near N(1-p)^(N-1)."""
    fails = []
    counts = plan.config.counts
    if set(counts) != {1}:
        raise ValueError("the connectivity check is written for all sizes equal to 1")
    n_super, t = counts[1], plan.trials
    connected = np.asarray(doc["trials"]["connected"], np.float64)
    isolated = np.asarray(doc["trials"]["isolated"], np.float64)
    if connected.shape[0] != t or isolated.shape[0] != t:
        return [f"report holds {connected.shape[0]} trials, expected {t}"]

    q = math.exp(-math.exp(-plan.c))
    sigma = math.sqrt(q * (1.0 - q) / t)
    p_hat = float(connected.mean())
    if abs(p_hat - q) > Z_CONNECTED * sigma:
        fails.append(f"P(connected)={p_hat:.4f} is {abs(p_hat - q) / sigma:.1f} sigma "
                     f"from exp(-exp(-c))={q:.4f}")

    p = (math.log(n_super) + plan.c) / n_super
    expected = n_super * (1.0 - p) ** (n_super - 1)
    se = max(float(isolated.std(ddof=1)), math.sqrt(expected)) / math.sqrt(t)
    if abs(float(isolated.mean()) - expected) > Z_CONNECTED * se:
        fails.append(f"isolated mean {isolated.mean():.4f} vs N(1-p)^(N-1)={expected:.4f} "
                     f"(se {se:.4f})")
    reported = doc["theory"]["expected_isolated"]
    if not math.isclose(reported, expected, rel_tol=1e-9):
        fails.append(f"report expected_isolated={reported!r} vs {expected!r}")
    return fails


def check_giant(plan, doc: dict) -> list[str]:
    """L1/N near the root of rho = 1 - exp(-c rho), and L2/N small, per trial."""
    fails = []
    counts = plan.config.counts
    n_super = sum(counts.values())
    rho = giant_rho(counts, plan.c)
    for t, (l1, l2) in enumerate(zip(doc["trials"]["L1"], doc["trials"]["L2"])):
        if abs(l1 / n_super - rho) > GIANT_L1_TOL:
            fails.append(f"trial {t}: L1/N={l1 / n_super:.4f} vs rho={rho:.4f}")
        if l2 / n_super > GIANT_L2_MAX:
            fails.append(f"trial {t}: L2/N={l2 / n_super:.4f} above {GIANT_L2_MAX}")
    if not math.isclose(doc["theory"]["rho"], rho, rel_tol=RHO_REL_TOL):
        fails.append(f"report rho={doc['theory']['rho']!r} vs bisection {rho!r}")
    return fails


def mixture_pmf(counts: dict[int, int], c: float, cutoff: int) -> np.ndarray:
    """sum_i mu_i Po(i c) on 0..cutoff, with the mass at and above cutoff lumped
    into the last entry."""
    n_super = sum(counts.values())
    k = np.arange(cutoff)
    pmf = np.zeros(cutoff + 1)
    for i, count in counts.items():
        w = count / n_super
        pmf[:cutoff] += w * stats.poisson.pmf(k, i * c)
        pmf[cutoff] += w * stats.poisson.sf(cutoff - 1, i * c)
    return pmf


def check_degree(plan, doc: dict) -> list[str]:
    """The averaged degree histogram against the scipy mixture, in TV."""
    fails = []
    empirical = {int(k): v for k, v in doc["distributions"]["degree_hist"].items()}
    cutoff = max(empirical)
    emp = np.array([empirical.get(k, 0.0) for k in range(cutoff + 1)])
    pmf = mixture_pmf(plan.config.counts, plan.c, cutoff)
    tv = 0.5 * float(np.abs(emp - pmf).sum())
    if tv > DEGREE_TV_MAX:
        fails.append(f"degree TV={tv:.4f} above {DEGREE_TV_MAX}")
    if abs(float(emp.sum()) - 1.0) > 1e-9:
        fails.append(f"degree histogram sums to {emp.sum()!r}")
    theory = doc["distributions"]["degree_theory"]
    worst = max(abs(theory[str(k)] - pmf[k]) for k in range(cutoff + 1))
    if worst > 1e-9:
        fails.append(f"report degree_theory differs from the scipy mixture by {worst:.3g}")
    return fails


def check_predict(op, outcome, data: bytes) -> list[str]:
    """predict's rho against bisection; the known fault must fail the known way."""
    if not outcome.ok:
        if op.known_fault and KNOWN_FAULT_TEXT in outcome.error:
            return []
        return [f"{op.name} failed: exit {outcome.value}: {outcome.error.strip()}"]
    doc = json.loads(data)
    rho = giant_rho(op.config.counts, op.c)
    if not math.isclose(doc["rho"], rho, rel_tol=RHO_REL_TOL):
        return [f"{op.name}: rho={doc['rho']!r} vs bisection {rho!r}"]
    return []


def expected_edges(counts: dict[int, int], p: float) -> tuple[float, float]:
    """Mean and standard deviation of the super-edge count:
    sum over size pairs of npairs * (1 - (1-p)^(ij))."""
    sizes = sorted(counts)
    mean = var = 0.0
    for a, i in enumerate(sizes):
        for j in sizes[a:]:
            npairs = counts[i] * (counts[i] - 1) // 2 if i == j else counts[i] * counts[j]
            q = -math.expm1(i * j * math.log1p(-p))
            mean += npairs * q
            var += npairs * q * (1.0 - q)
    return mean, math.sqrt(var)


def parse_edge_list(data: bytes) -> tuple[str, np.ndarray]:
    """Header line and the (m, 2) edge array of an exported edge list."""
    header, _, body = data.partition(b"\n")
    edges = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    return header.decode(), edges


def check_export(op, data: bytes) -> list[str]:
    """Header, u < v, strict lexicographic order and the edge count."""
    fails = []
    counts = op.config.counts
    n_super = sum(counts.values())
    spec = ",".join(f"{i}x{k}" for i, k in sorted(counts.items()))
    header, edges = parse_edge_list(data)
    if header != f"# N={n_super} sizes={spec}":
        fails.append(f"{op.name}: header {header!r}")
    u, v = edges[:, 0], edges[:, 1]
    if edges.shape[0]:
        if u.min() < 0 or v.max() >= n_super or (u >= v).any():
            fails.append(f"{op.name}: an edge breaks 0 <= u < v < N")
        ascending = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
        if not ascending.all():
            fails.append(f"{op.name}: edges not in strict lexicographic order "
                         "(unsorted or duplicated)")
    p = op.c / sum(i * k for i, k in counts.items())
    mean, sd = expected_edges(counts, p)
    if abs(edges.shape[0] - mean) > Z_EDGES * sd:
        fails.append(f"{op.name}: {edges.shape[0]} edges, expected {mean:.0f} +- {sd:.0f}")
    return fails
