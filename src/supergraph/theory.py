"""Closed-form and limiting predictions for G(N, K, p).

Finite-N exact quantities, with q = 1 - p and e_i = i(n-i):

* ``expected_isolated``  E[X] = sum_i k_i q^e_i
* ``variance_isolated``  V[X] = sum_i k_i q^e_i (1 - q^e_i)
  + sum_{i,j} k_i (k_j - [i = j]) q^(e_i + e_j - ij) (1 - q^(ij)),
  a sum of nonnegative terms over single super-vertices and ordered pairs
  of distinct ones; e_i + e_j - ij >= ij for any such pair, so no power of
  q has a negative exponent.

Limits as N grows:

* connectivity probability at p = (ln N + c)/N: 0 for c = -inf;
  exp(-exp(-c)) for finite c with u = 1; 1 for finite c with u > 1 and
  for c = +inf.
* giant component at p = c/n: L1/N -> rho = sum_i rho(i) mu_i where
  rho(i) = 1 - exp(-(c i / u) S) and S = sum_j j mu_j rho(j) is the
  maximal root of S = sum_j j mu_j (1 - exp(-(c j / u) S)). rho > 0
  iff c*s2 > 1, i.e. the threshold sits at c* = 1/s2. The kernel has
  rank 1, so the whole fixed point is the one scalar equation f(S) = 0
  with f(S) = sum_j j mu_j (1 - exp(-(c j / u) S)) - S (Bollobas, Janson
  and Riordan, Random Struct. Alg. 31, 2007). f is concave, so Newton's
  method from S = u decreases monotonically onto the maximal root, in a
  few dozen steps even close to c*.
* degree law at p = c/n: Z_k/N -> P(Xi = k) with Xi mixed Poisson,
  P(Xi = k) = sum_i mu_i P(Po(i c) = k).

Reference laws on the integers are truncated in one place, ``lumped_pmf``:
at the first k where the pmf head leaves a tail below TAIL_LUMP, with that
tail lumped into the last entry.

Everything here is a pure function; safe for concurrent use.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .config import LimitProfile, SizeConfiguration

TAIL_LUMP = 1e-9  # default truncation: the first k whose tail is below this

_U_EQUAL_ONE_TOL = 1e-9

_SOLVER_TOL = 1e-12
_SOLVER_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class GiantSolution:
    """Result of the giant-component fixed point.

    rho_by_size[i] is the asymptotic probability that a size-i super-vertex
    lies in the giant component; rho is their mu-weighted mean. rho_by_size
    is nondecreasing in i because the kernel is increasing in the size.
    """

    rho_by_size: dict[int, float]
    rho: float
    iterations: int
    residual: float


def expected_isolated(config: SizeConfiguration, p: float) -> float:
    """Exact finite-N expectation of the isolated super-vertex count X."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    n = config.num_vertices
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    total = 0.0
    for i, k in config.counts.items():
        e = i * (n - i)
        total += k if e == 0 else k * math.exp(e * log_q)
    return total


def variance_isolated(config: SizeConfiguration, p: float) -> float:
    """Exact finite-N variance of X.

    Summed by fsum over nonnegative terms only, with 1 - q^x evaluated as
    -expm1(x log1p(-p)), so no digits cancel at small p and no power of q
    overflows as p -> 1. At p = 1, X is identically 0 (N >= 2) or 1
    (N = 1), so V = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    if p == 1.0 or config.num_super == 1:
        return 0.0
    n = config.num_vertices
    log_q = math.log1p(-p)
    items = list(config.counts.items())
    terms = []
    for i, ki in items:
        e_i = i * (n - i)
        terms.append(ki * math.exp(e_i * log_q) * -math.expm1(e_i * log_q))
        for j, kj in items:
            pairs = ki * (kj - (i == j))  # ordered pairs of distinct super-vertices
            if pairs:
                e_j = j * (n - j)
                terms.append(pairs * math.exp((e_i + e_j - i * j) * log_q)
                             * -math.expm1(i * j * log_q))
    return math.fsum(terms)


def limit_connectivity_probability(c: float, u: float) -> float:
    """Limiting probability that G(N, K, p) is connected at p = (ln N + c)/N.

    c = -inf and c = +inf stand for the limits c -> -inf and c -> +inf.
    """
    if math.isnan(c):
        raise ValueError("c must not be NaN")
    if not math.isfinite(u) or u < 1.0 - 1e-12:
        raise ValueError(f"u must be finite and >= 1, got {u}")
    if c == -math.inf:
        return 0.0
    if abs(u - 1.0) <= _U_EQUAL_ONE_TOL:
        return math.exp(-math.exp(-c))  # 1.0 at c = +inf
    return 1.0


def limit_kernel(i: int, j: int, c: float, u: float) -> float:
    """Limit connection kernel (c/u) * i * j on the size space."""
    if not math.isfinite(u) or u < 1.0 - 1e-12:
        raise ValueError(f"u must be finite and >= 1, got {u}")
    _check_c(c)
    return (c / u) * i * j


def critical_threshold(profile: LimitProfile) -> float:
    """c* = 1/s2: the giant component exists iff c * s2 > 1."""
    return 1.0 / profile.s2


def is_supercritical(profile: LimitProfile, c: float) -> bool:
    """True iff c * s2 > 1 (the boundary itself counts as subcritical)."""
    return c * profile.s2 > 1.0


def _check_c(c: float) -> None:
    if not math.isfinite(c) or c < 0.0:
        raise ValueError(f"c must be finite and >= 0, got {c}")


def solve_giant_fraction(profile: LimitProfile, c: float) -> GiantSolution:
    """Solve the giant-component fixed point for the kernel (c/u) i j.

    Newton's method on f(S) = sum_j j mu_j (1 - exp(-(c j / u) S)) - S from
    S = u, with f'(S) = sum_j j mu_j (c j / u) exp(-(c j / u) S) - 1; then
    rho(i) = 1 - exp(-(c i / u) S). Above c*, f is concave with f(0) = 0,
    f'(0) = c s2 - 1 > 0 and f(u) < 0, so a Newton step from any S right of
    the root lands at or above the root: the iterates decrease monotonically
    to the maximal root, quadratically once near it, at any distance from
    c*. A step that rounding throws out of (0, S] halves S instead. Within
    a few ulps of c* rounding can hide the root altogether; S then runs down
    towards 0 (rho < 1e-15) in about a thousand steps.

    Stops when a step is at most _SOLVER_TOL * S, or when S stops decreasing
    (f(S) rounds to >= 0); ``iterations`` counts the Newton steps tried and
    ``residual`` is the last one taken. Past _SOLVER_MAX_STEPS steps it
    raises RuntimeError with that residual. Subcritical parameters
    (c * s2 <= 1) short-circuit to exactly rho = 0.
    """
    _check_c(c)
    mu = profile.mu
    u = profile.u
    if not is_supercritical(profile, c):
        return GiantSolution(rho_by_size={i: 0.0 for i in mu}, rho=0.0,
                             iterations=0, residual=0.0)
    rates = [(j * m, c * j / u) for j, m in mu.items()]
    s = u
    step = 0.0
    for iteration in range(1, _SOLVER_MAX_STEPS + 1):
        f = math.fsum([*(w * -math.expm1(-x * s) for w, x in rates), -s])
        if f >= 0.0:  # S stopped decreasing: it is the root to the last bit
            break
        slope = math.fsum([*(w * x * math.exp(-x * s) for w, x in rates), -1.0])
        s_next = s - f / slope if slope < 0.0 else 0.0
        if not s_next > 0.0:  # rounding threw the step out of (0, S]
            s_next = 0.5 * s
        step = s - s_next
        s = s_next
        if step <= _SOLVER_TOL * s:
            break
    else:
        raise RuntimeError(
            f"giant-component fixed point did not converge in {_SOLVER_MAX_STEPS} iterations "
            f"(c={c}, residual={step:.3e})")
    rho_by_size = {i: -math.expm1(-(c * i / u) * s) for i in mu}
    rho = math.fsum(rho_by_size[i] * m for i, m in mu.items())
    return GiantSolution(rho_by_size=rho_by_size, rho=rho,
                         iterations=iteration, residual=step)


def poisson_pmf(lam: float, k: int) -> float:
    """P(Po(lam) = k), via log-gamma so large k stays stable."""
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if k < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def mixed_poisson_pmf(profile: LimitProfile, c: float, k: int) -> float:
    """Limiting degree law: P(Xi = k) = sum_i mu_i P(Po(i c) = k)."""
    _check_c(c)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return math.fsum(m * poisson_pmf(i * c, k) for i, m in profile.mu.items())


def tail_mass(head: list[float]) -> float:
    """P(X >= k) from head = [P(X = 0), ..., P(X = k-1)], clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - math.fsum(head)))


def lumped_pmf(pmf: Callable[[int], float], tail_below: float = TAIL_LUMP) -> list[float]:
    """[pmf(0), ..., pmf(K-1), P(X >= K)] for the first K where the head leaves
    a tail below tail_below.

    The stop rule tests the naive running total of the head; the lumped last
    entry is ``tail_mass`` of the head.
    """
    if not 0.0 < tail_below < 1.0:
        raise ValueError(f"tail_below must lie in (0, 1), got {tail_below!r}")
    head: list[float] = []
    total = 0.0
    while 1.0 - total >= tail_below:
        value = pmf(len(head))
        head.append(value)
        total += value
        if len(head) > 10 ** 6:  # a tail_below under the rounding of the total is never met
            raise RuntimeError(f"pmf head passed 10^6 terms with a tail of {1.0 - total:.3g} "
                               f"still >= tail_below={tail_below!r}")
    head.append(tail_mass(head))
    return head


def mixed_poisson_tail(profile: LimitProfile, c: float, k: int) -> float:
    """P(Xi >= k) = 1 - sum_{j<k} P(Xi = j)."""
    return tail_mass([mixed_poisson_pmf(profile, c, j) for j in range(k)])


def degree_pmf_head(profile: LimitProfile, c: float, tail_below: float = TAIL_LUMP) -> list[float]:
    """[P(Xi = k) for k below degree_pmf_cutoff]: ``lumped_pmf`` without the lump."""
    return lumped_pmf(partial(mixed_poisson_pmf, profile, c), tail_below)[:-1]


def degree_pmf_cutoff(profile: LimitProfile, c: float, tail_below: float = TAIL_LUMP) -> int:
    """Smallest k with P(Xi >= k) < tail_below; the default pmf truncation."""
    return len(degree_pmf_head(profile, c, tail_below))
