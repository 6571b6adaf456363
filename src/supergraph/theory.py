"""Closed-form and limiting predictions for G(N, K, p).

Finite-N exact quantities:

* ``expected_isolated``  E[X] = sum_i k_i (1-p)^(i(n-i))
* ``variance_isolated``  V[X] = E[X]
  + sum_{i,j} k_i k_j (1-p)^(i(n-i)+j(n-j)) [(1-p)^(-ij) - 1]
  - sum_i k_i (1-p)^(2i(n-i)-i^2)

Limits as N grows:

* connectivity probability at p = (ln N + c)/N: 0 when c -> -inf;
  exp(-exp(-c)) for fixed c with u = 1; 1 for fixed c with u > 1 or
  c -> +inf.
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

Everything here is a pure function; safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import LimitProfile, SizeConfiguration

REGIME_KINDS = ("c_to_minus_infinity", "fixed_c", "c_to_plus_infinity")

_U_EQUAL_ONE_TOL = 1e-9


@dataclass(frozen=True)
class ConnectivityRegime:
    """Which clause of the connectivity limit applies.

    ``fixed_c`` carries the constant c; the limit kinds ignore it.
    """

    kind: str
    c: float = math.nan

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.kind == "fixed_c" and not math.isfinite(self.c):
            raise ValueError("fixed_c regime requires a finite c")

    @classmethod
    def fixed(cls, c: float) -> "ConnectivityRegime":
        return cls(kind="fixed_c", c=float(c))

    @classmethod
    def minus_infinity(cls) -> "ConnectivityRegime":
        return cls(kind="c_to_minus_infinity")

    @classmethod
    def plus_infinity(cls) -> "ConnectivityRegime":
        return cls(kind="c_to_plus_infinity")


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

    Evaluated with exponents combined in the log domain so nothing
    overflows for n in the thousands; the diagonal is folded so the
    (1-p)^(-ij) factor never appears with a nonnegative exponent. At
    p = 1, X is identically 0 (N >= 2) or 1 (N = 1), so V = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    if p == 1.0 or config.num_super == 1:
        return 0.0
    n = config.num_vertices
    log_q = math.log1p(-p)
    items = list(config.counts.items())
    total = expected_isolated(config, p)
    for i, ki in items:
        e_i = i * (n - i)
        for j, kj in items:
            if i == j:
                if ki > 1:
                    total += ki * (ki - 1) * math.exp((2 * e_i - i * i) * log_q)
                total -= ki * ki * math.exp(2 * e_i * log_q)
            else:
                e_j = j * (n - j)
                total += ki * kj * (math.exp((e_i + e_j - i * j) * log_q)
                                    - math.exp((e_i + e_j) * log_q))
    return total


def limit_connectivity_probability(regime: ConnectivityRegime, u: float) -> float:
    """Limiting probability that G(N, K, p) is connected at p = (ln N + c)/N."""
    if u < 1.0 - 1e-12:
        raise ValueError(f"u must be >= 1, got {u}")
    if regime.kind == "c_to_minus_infinity":
        return 0.0
    if regime.kind == "c_to_plus_infinity":
        return 1.0
    if abs(u - 1.0) <= _U_EQUAL_ONE_TOL:
        return math.exp(-math.exp(-regime.c))
    return 1.0


def limit_kernel(i: int, j: int, c: float, u: float) -> float:
    """Limit connection kernel (c/u) * i * j on the size space."""
    if u < 1.0 - 1e-12:
        raise ValueError(f"u must be >= 1, got {u}")
    if c < 0.0:
        raise ValueError(f"c must be >= 0, got {c}")
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


def solve_giant_fraction(profile: LimitProfile, c: float, tol: float = 1e-12,
                         max_iter: int = 10 ** 6) -> GiantSolution:
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

    Stops when a step is at most tol * S, or when S stops decreasing (f(S)
    rounds to >= 0); ``iterations`` counts the Newton steps tried and
    ``residual`` is the last one taken. Subcritical parameters
    (c * s2 <= 1) short-circuit to exactly rho = 0.
    """
    _check_c(c)
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    mu = profile.mu
    u = profile.u
    if not is_supercritical(profile, c):
        return GiantSolution(rho_by_size={i: 0.0 for i in mu}, rho=0.0,
                             iterations=0, residual=0.0)
    rates = [(j * m, c * j / u) for j, m in mu.items()]
    s = u
    step = 0.0
    for iteration in range(1, max_iter + 1):
        f = math.fsum([*(w * -math.expm1(-x * s) for w, x in rates), -s])
        if f >= 0.0:  # S stopped decreasing: it is the root to the last bit
            break
        slope = math.fsum([*(w * x * math.exp(-x * s) for w, x in rates), -1.0])
        s_next = s - f / slope if slope < 0.0 else 0.0
        if not s_next > 0.0:  # rounding threw the step out of (0, S]
            s_next = 0.5 * s
        step = s - s_next
        s = s_next
        if step <= tol * s:
            break
    else:
        raise RuntimeError(
            f"giant-component fixed point did not converge in {max_iter} iterations "
            f"(c={c}, residual={step:.3e})")
    rho_by_size = {i: -math.expm1(-(c * i / u) * s) for i in mu}
    rho = math.fsum(rho_by_size[i] * m for i, m in mu.items())
    return GiantSolution(rho_by_size=rho_by_size, rho=rho,
                         iterations=iteration, residual=step)


def poisson_pmf(lam: float, k: int) -> float:
    """P(Po(lam) = k), via log-gamma so large k stays stable."""
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
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


def mixed_poisson_tail(profile: LimitProfile, c: float, k: int) -> float:
    """P(Xi >= k) = 1 - sum_{j<k} P(Xi = j)."""
    if k <= 0:
        return 1.0
    head = math.fsum(mixed_poisson_pmf(profile, c, j) for j in range(k))
    return min(1.0, max(0.0, 1.0 - head))


def degree_pmf_head(profile: LimitProfile, c: float, tail_below: float = 1e-9) -> list[float]:
    """[P(Xi = k) for k below degree_pmf_cutoff], from one pass over k."""
    _check_c(c)
    head = []
    total = 0.0
    while 1.0 - total >= tail_below:
        value = mixed_poisson_pmf(profile, c, len(head))
        head.append(value)
        total += value
        if len(head) > 10 ** 6:  # tail of a mixed Poisson always dies; guard anyway
            raise RuntimeError("degree pmf cutoff did not terminate")
    return head


def degree_pmf_cutoff(profile: LimitProfile, c: float, tail_below: float = 1e-9) -> int:
    """Smallest k with P(Xi >= k) < tail_below; the default pmf truncation."""
    return len(degree_pmf_head(profile, c, tail_below))

