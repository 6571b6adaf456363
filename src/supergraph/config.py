"""Size configurations of the super-vertex model and their scalar summaries.

A configuration is the multiset K of super-vertex sizes, stored sparsely as
``{size i: count k_i}``. From it everything else derives: N = sum k_i super
vertices, n = sum i*k_i underlying vertices, and the profile quantities
mu_i = k_i/N, u = n/N and s2 = sum j^2 k_j / n that drive all closed-form
predictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PROFILE_TOL = 1e-12  # double precision headroom for profile identities
# Sizes, counts and n below 2^511 keep n^2, and so every product and pair
# sum of them that the closed forms take, below float64's maximum of ~2^1024.
_FLOAT_RANGE_BITS = 511


@dataclass(frozen=True)
class SizeConfiguration:
    """Counts of super-vertices per size: ``counts[i] = k_i``.

    Sizes and counts are positive integers; support is finite and nonempty.
    Immutable after construction and safe to share across trial workers.
    """

    counts: dict[int, int]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("empty configuration")
        for size, count in self.counts.items():
            if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                raise ValueError(f"size must be an integer >= 1, got {size!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"count for size {size} must be an integer >= 1, got {count!r}")
        object.__setattr__(self, "counts", dict(sorted(self.counts.items())))

    @property
    def num_super(self) -> int:
        """N, the number of super-vertices."""
        return sum(self.counts.values())

    @property
    def num_vertices(self) -> int:
        """n, the number of underlying vertices."""
        return sum(i * k for i, k in self.counts.items())

    @property
    def max_size(self) -> int:
        return max(self.counts)

    def size_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sizes ascending, counts, index offsets) as int64 arrays.

        Super-vertices are numbered 0..N-1 by size class in ascending size
        order; this fixed layout is what seeds reproduce against. Raises
        ValueError for a size or count past int64.
        """
        if max(self.max_size, *self.counts.values()) >= 1 << 63:
            raise ValueError("sizes and counts must be below 2^63 to sample")
        sizes = np.fromiter(self.counts.keys(), np.int64)
        counts = np.fromiter(self.counts.values(), np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return sizes, counts, offsets


@dataclass(frozen=True)
class LimitProfile:
    """Profile (mu_i, u, s2) of a configuration.

    Sizes are integers >= 1 and mu, u and s2 are finite. Invariants (checked
    to PROFILE_TOL): sum mu_i = 1, u = sum i*mu_i, s2 = sum j^2 mu_j / u, and
    s2 >= u >= 1 with equality iff all sizes are 1.
    """

    mu: dict[int, float]
    u: float
    s2: float

    def __post_init__(self):
        for size in self.mu:
            if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                raise ValueError(f"size must be an integer >= 1, got {size!r}")
        if not all(math.isfinite(x) for x in (*self.mu.values(), self.u, self.s2)):
            raise ValueError(f"mu, u and s2 must be finite, got u={self.u!r}, s2={self.s2!r}")
        object.__setattr__(self, "mu", dict(sorted(self.mu.items())))
        total = math.fsum(self.mu.values())
        if abs(total - 1.0) > PROFILE_TOL:
            raise ValueError(f"mu must sum to 1, got {total!r}")
        if any(m < 0 for m in self.mu.values()):
            raise ValueError("mu entries must be nonnegative")
        u_check = math.fsum(i * m for i, m in self.mu.items())
        if abs(u_check - self.u) > PROFILE_TOL * max(1.0, abs(self.u)):
            raise ValueError(f"u={self.u!r} inconsistent with sum i*mu_i={u_check!r}")
        s2_check = math.fsum(i * i * m for i, m in self.mu.items()) / self.u
        if abs(s2_check - self.s2) > PROFILE_TOL * max(1.0, abs(self.s2)):
            raise ValueError(f"s2={self.s2!r} inconsistent with sum j^2*mu_j/u={s2_check!r}")
        if self.u < 1.0 - PROFILE_TOL or self.s2 < self.u - PROFILE_TOL:
            raise ValueError("profile must satisfy s2 >= u >= 1")

    @classmethod
    def from_weights(cls, mu: dict[int, float]) -> "LimitProfile":
        """Build a profile directly from normalized weights."""
        u = math.fsum(i * m for i, m in mu.items())
        # u = 0 only for weights that the constructor rejects
        s2 = math.fsum(i * i * m for i, m in mu.items()) / u if u else math.nan
        return cls(mu=mu, u=u, s2=s2)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """json object hook that rejects a key repeated within one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r} in configuration document")
        obj[key] = value
    return obj


def parse_configuration(text: str) -> SizeConfiguration:
    """Parse the JSON configuration document ``{"sizes": {"<i>": <k_i>, ...}}``."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed configuration document: {exc}") from exc
    if not isinstance(doc, dict) or "sizes" not in doc:
        raise ValueError('configuration document must be an object with a "sizes" key')
    sizes = doc["sizes"]
    if not isinstance(sizes, dict) or not sizes:
        raise ValueError('"sizes" must be a nonempty object')
    counts = {}
    for key, value in sizes.items():
        try:
            size = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"size key {key!r} is not a decimal integer") from None
        if str(size) != key or size < 1:  # canonical decimal only: no "+5", "07", " 1"
            raise ValueError(f"size key {key!r} must be a decimal integer >= 1")
        counts[size] = value
    return SizeConfiguration(counts)


def serialize_configuration(config: SizeConfiguration) -> str:
    """Canonical JSON for a configuration; inverse of parse_configuration."""
    body = ", ".join(f'"{i}": {k}' for i, k in sorted(config.counts.items()))
    return '{"sizes": {%s}}' % body


def parse_inline(text: str) -> SizeConfiguration:
    """Parse the CLI shorthand ``1x500,2x250`` (sizeXcount, comma separated)."""
    counts: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            size_s, count_s = part.split("x")
            size, count = int(size_s), int(count_s)
        except ValueError:
            raise ValueError(f"bad inline entry {part!r}, expected <size>x<count>") from None
        if size in counts:
            raise ValueError(f"duplicate size {size} in inline configuration")
        counts[size] = count
    return SizeConfiguration(counts)


def _check_float_range(config: SizeConfiguration) -> None:
    """Raise ValueError, naming the size, count or n at fault, for a
    configuration whose closed forms would pass float64's range."""
    limit = 1 << _FLOAT_RANGE_BITS
    for size, count in config.counts.items():
        if size >= limit:
            raise ValueError(f"size {size} is too large for float64 predictions: "
                             f"sizes must be below 2^{_FLOAT_RANGE_BITS}")
        if count >= limit:
            raise ValueError(f"count {count} for size {size} is too large for float64 "
                             f"predictions: counts must be below 2^{_FLOAT_RANGE_BITS}")
    if config.num_vertices >= limit:
        raise ValueError(f"n={config.num_vertices} is too large for float64 predictions: "
                         f"n must be below 2^{_FLOAT_RANGE_BITS}")


def empirical_profile(config: SizeConfiguration) -> LimitProfile:
    """Finite-N profile: mu_i = k_i/N, u = n/N, s2 = sum j^2 k_j / n.

    Raises ValueError for a size, count or n of 2^511 or more.
    """
    _check_float_range(config)
    n_super, n_vert = config.num_super, config.num_vertices
    mu = {i: k / n_super for i, k in config.counts.items()}
    s2_num = sum(j * j * k for j, k in config.counts.items())
    return LimitProfile(mu=mu, u=n_vert / n_super, s2=s2_num / n_vert)


def power_law_configuration(n_super: int, alpha: float, max_size: int) -> SizeConfiguration:
    """Configuration whose size tail follows sum_{i>=k} mu_i = k^{-alpha}.

    Weights are the increments of the target tail, w_i = i^-alpha - (i+1)^-alpha
    for i < max_size, with the whole truncated tail mass max_size^-alpha carried
    by the top size. They telescope to exactly k^-alpha, so the cumulative
    power-law condition holds with constant 1 before rounding. Each count is
    floor(N*w_i); sizes rounded to zero are dropped and the integer remainder
    goes to size 1, so counts always sum to exactly N. Counts are strictly
    positive and non-increasing below the top size; the top size carries the
    tail atom and may exceed its neighbor.
    """
    for name, value in (("n_super", n_super), ("max_size", max_size)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not isinstance(alpha, (int, float, np.integer, np.floating)) or isinstance(alpha, bool):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    if not alpha > 1.0:  # NaN included
        raise ValueError(f"alpha must be > 1 for a summable size profile, got {alpha}")
    n_super, max_size = int(n_super), int(max_size)
    if max_size > n_super:
        raise ValueError(f"max_size {max_size} exceeds n_super {n_super}")
    counts: dict[int, int] = {}
    for i in range(1, max_size + 1):
        if i == max_size:
            w = float(i) ** -alpha
        else:
            w = float(i) ** -alpha - float(i + 1) ** -alpha
        k = int(n_super * w)
        if k >= 1:
            counts[i] = k
    counts[1] = counts.get(1, 0) + n_super - sum(counts.values())
    return SizeConfiguration(counts)
