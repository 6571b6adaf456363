"""Samplers for G(N, K, p).

Two independently implemented mechanisms that must agree in distribution:

* ``sample_direct`` draws each super-vertex pair {k, l} directly as a
  Bernoulli with the pair probability 1 - (1-p)^(i*j).
* ``sample_constructive`` realizes the defining construction: it draws the
  underlying cross vertex pairs as Bernoulli(p) and connects two
  super-vertices iff at least one underlying edge lands between their
  vertex sets. Pairs inside one super-vertex are never sampled; they
  cannot create a super edge.

Both are deterministic given (config, params, seed) and run in expected
time O(N + edges) via per-block geometric skipping.

``write_edge_list`` exports a graph as text. It formats the edges in numpy
digit buffers, a chunk of rows at a time, with no per-edge Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import kernels
from .config import SizeConfiguration
from .kernels import edge_probability  # noqa: F401  (public as supergraph.edge_probability)

REGIMES = ("raw", "connectivity", "sparse")

_SEED_LIMIT = 1 << 64
_INT64_MAX = (1 << 63) - 1
_MAX_SUPER = 3_037_000_499  # isqrt(2**63 - 1)


@dataclass(frozen=True)
class ModelParams:
    """Edge probability p and the parameterization it came from.

    regime "raw" reads c as the probability itself; "connectivity" sets
    p = (ln N + c) / N; "sparse" sets p = c / n.
    """

    regime: str
    c: float
    p: float

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"resolved p={self.p!r} outside [0, 1]")


def resolve_p(regime: str, c: float, config: SizeConfiguration) -> ModelParams:
    """Resolve the edge probability for a configuration under a regime."""
    n_super, n_vert = config.num_super, config.num_vertices
    if regime == "raw":
        p = float(c)
    elif regime == "connectivity":
        p = (math.log(n_super) + c) / n_super
    elif regime == "sparse":
        p = c / n_vert
    else:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"regime {regime!r} with c={c} resolves to p={p}, outside [0, 1]")
    return ModelParams(regime=regime, c=float(c), p=p)


def _int64_array(values, name: str) -> np.ndarray:
    """values as a contiguous int64 array; a float or bool one would be silently
    cast, and an unsigned value past the int64 maximum would wrap negative."""
    values = np.asarray(values)
    if values.size:
        if values.dtype.kind not in "iu":  # signed, unsigned; not bool ("b")
            raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
        if values.dtype.kind == "u" and values.max() > _INT64_MAX:
            raise ValueError(f"{name} must lie in the int64 range, at most 2^63 - 1, "
                             f"got {values.max()}")
    return np.ascontiguousarray(values, np.int64)


@dataclass(frozen=True)
class SuperGraph:
    """A sampled realization: per-node sizes and a canonical edge array.

    ``edges`` has shape (m, 2) with u < v per row, rows sorted
    lexicographically, no duplicates, no self loops. Rows may come in any
    order; one stable sort by the int64 key u*N + v ranks them, so N may not
    exceed 3_037_000_499 (N*N < 2^63). Both arrays take any integer dtype;
    a non-empty float or bool one raises. Arrays are marked read-only;
    instances are safe to share between threads.
    """

    sizes: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        sizes = _int64_array(self.sizes, "sizes")
        edges = _int64_array(self.edges, "edges").reshape(-1, 2)
        n = sizes.shape[0]
        if n < 1 or (sizes < 1).any():
            raise ValueError("sizes must be a nonempty vector of integers >= 1")
        _check_num_super(n)
        if edges.shape[0]:
            if (edges[:, 0] >= edges[:, 1]).any():
                raise ValueError("edges must satisfy u < v (no self loops)")
            if edges[:, 0].min() < 0 or edges[:, 1].max() >= n:
                raise ValueError("edge endpoints out of range")
            key = edges[:, 0] * n + edges[:, 1]
            order = np.argsort(key, kind="stable")
            if (np.diff(key[order]) == 0).any():
                raise ValueError("duplicate edges")
            edges = edges[order]
        sizes.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "edges", edges)

    @property
    def num_super(self) -> int:
        return self.sizes.shape[0]

    @property
    def num_vertices(self) -> int:
        """n, summed as Python ints: exact where an int64 sum would wrap."""
        return sum(self.sizes.tolist())

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < _SEED_LIMIT:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def _check_num_super(n: int) -> None:
    if n > _MAX_SUPER:
        raise ValueError(f"N={n} exceeds {_MAX_SUPER}: the edge key u*N + v overflows int64")


def _build(config: SizeConfiguration, p: float, seed: int, constructive: bool) -> SuperGraph:
    _check_num_super(config.num_super)  # before any array of N entries or past int64 exists
    class_sizes, class_counts, class_offsets = config.size_classes()
    eu, ev = kernels.sample_edges(class_sizes, class_counts, class_offsets, p, seed,
                                  constructive=constructive)
    sizes = np.repeat(class_sizes, class_counts)
    return SuperGraph(sizes=sizes, edges=np.column_stack((eu, ev)))


def sample_direct(config: SizeConfiguration, params: ModelParams, seed: int) -> SuperGraph:
    """Draw each super-vertex pair as an independent Bernoulli(p_ij)."""
    return _build(config, params.p, _check_seed(seed), constructive=False)


def sample_constructive(config: SizeConfiguration, params: ModelParams, seed: int) -> SuperGraph:
    """Collapse an underlying G(n, p): a super edge iff >= 1 cross edge."""
    return _build(config, params.p, _check_seed(seed), constructive=True)


_CHUNK_ROWS = 1 << 16
# Endpoints lie below _MAX_SUPER < 2^32, so uint32 holds them and a digit
# count is 1 + the number of powers 10^1 .. 10^9 at or below the endpoint.
_POW10 = 10 ** np.arange(1, 10, dtype=np.uint32)


def _format_rows(rows: np.ndarray) -> str:
    """The "u v" lines of an (m, 2) array, m >= 1, of endpoints in [0, 2^32).

    Each endpoint takes its digits plus one separator byte; one cumsum of
    those widths gives every field's end. Digits are written right to left,
    one divmod by 10 per digit position, over the endpoints that still have
    a digit there.
    """
    x = rows.astype(np.uint32).ravel()
    ends = np.cumsum(np.searchsorted(_POW10, x, side="right") + 2)
    buf = np.empty(int(ends[-1]), np.uint8)
    buf[ends[0::2] - 1] = ord(" ")
    buf[ends[1::2] - 1] = ord("\n")
    pos = ends - 2
    while x.size:
        x, digit = np.divmod(x, 10)
        buf[pos] = digit.astype(np.uint8) + ord("0")
        more = x > 0
        x, pos = x[more], pos[more] - 1
    return buf.tobytes().decode("ascii")


def write_edge_list(graph: SuperGraph, out: TextIO) -> None:
    """Write the export format: a header line, then one "u v" line per edge.

    The edge lines are formatted in numpy, at most _CHUNK_ROWS rows at a
    time, with no per-edge Python loop.
    """
    sizes, counts = np.unique(graph.sizes, return_counts=True)
    spec = ",".join(f"{int(i)}x{int(k)}" for i, k in zip(sizes, counts))
    out.write(f"# N={graph.num_super} sizes={spec}\n")
    edges = graph.edges
    for start in range(0, edges.shape[0], _CHUNK_ROWS):
        out.write(_format_rows(edges[start:start + _CHUNK_ROWS]))
