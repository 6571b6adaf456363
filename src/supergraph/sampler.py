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

``write_edge_list`` exports a graph as text, a chunk of rows at a time, with
no per-edge Python loop: numpy lays every endpoint out as NUL-padded 3-digit
groups, the lowest with the separator, and one ``bytes.translate`` drops the NULs.
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
    """values as an int64 array, in their own memory layout. A float or bool one would
    be silently cast, and an unsigned value past the int64 maximum would wrap negative;
    numpy promotes a list holding an integer outside int64 to float64 or object."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":  # signed, unsigned; not bool ("b")
        items = [] if isinstance(values, np.ndarray) else np.asarray(values, object).ravel().tolist()
        if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in items):
            outside = [x for x in map(int, items) if not -_INT64_MAX - 1 <= x <= _INT64_MAX]
            if outside:
                raise ValueError(f"{name} must lie in the int64 range, -2^63 to 2^63 - 1, "
                                 f"got {outside[0]}")
        raise ValueError(f"{name} must hold integers, got dtype {array.dtype}")
    if array.size and array.dtype.kind == "u" and array.max() > _INT64_MAX:
        raise ValueError(f"{name} must lie in the int64 range, at most 2^63 - 1, "
                         f"got {array.max()}")
    return np.asarray(array, np.int64)


@dataclass(frozen=True)
class SuperGraph:
    """A sampled realization: per-node sizes and a canonical edge array.

    ``edges`` has shape (m, 2) with u < v per row, rows sorted
    lexicographically, no duplicates, no self loops. Rows in any order and
    layout give int64 keys u*N + v, sorted in place and decoded into a fresh
    array, so N may not exceed 3_037_000_499 (N*N < 2^63). Any integer dtype
    is taken; a non-empty float or bool array, non-empty ``edges`` not of shape
    (m, 2) or ``sizes`` not 1-D raises. Both arrays are the graph's own copies,
    marked read-only; instances are safe to share between threads.
    """

    sizes: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        sizes = _int64_array(self.sizes, "sizes")
        edges = _int64_array(self.edges, "edges")
        if sizes.ndim != 1:
            raise ValueError(f"sizes must be 1-D, got shape {sizes.shape}")
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must have shape (m, 2), got shape {edges.shape}")
        n = sizes.shape[0]
        if n < 1 or (sizes < 1).any():
            raise ValueError("sizes must be a nonempty vector of integers >= 1")
        _check_num_super(n)
        u, v = edges.reshape(-1, 2).T  # no rows if empty, of any shape
        if (u >= v).any():
            raise ValueError("edges must satisfy u < v (no self loops)")
        if u.size and (u.min() < 0 or v.max() >= n):
            raise ValueError("edge endpoints out of range")
        key = u * n + v
        key.sort(kind="stable")  # timsort: the kernel's rows come in a few ascending runs
        if (key[1:] == key[:-1]).any():
            raise ValueError("duplicate edges")
        edges = np.empty((key.shape[0], 2), np.int64)
        np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))  # exact: 0 <= v < n
        del key  # first, so the key and the sizes' copy never add up in the peak
        sizes = sizes.copy()  # never the caller's memory, nor its flags
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
    classes = config.size_classes()
    uv = np.asarray(kernels.sample_edges(*classes, p, seed, constructive=constructive))  # (2, m)
    return SuperGraph(sizes=np.repeat(*classes[:2]), edges=uv.T)


def sample_direct(config: SizeConfiguration, params: ModelParams, seed: int) -> SuperGraph:
    """Draw each super-vertex pair as an independent Bernoulli(p_ij)."""
    return _build(config, params.p, _check_seed(seed), constructive=False)


def sample_constructive(config: SizeConfiguration, params: ModelParams, seed: int) -> SuperGraph:
    """Collapse an underlying G(n, p): a super edge iff >= 1 cross edge."""
    return _build(config, params.p, _check_seed(seed), constructive=True)


# 2^13 rows keep a chunk's index, words and text in L2. Writing 749,545 edges took
# 35-37 ms at 2^13 to 2^15, 37-39 ms at 2^16 and 39 ms at 2^12 (medians of 15, 2 sets).
_CHUNK_ROWS = 1 << 13


def _export_words() -> np.ndarray:
    """The export's 4-byte words: a 3-digit group, then NUL, " " or "\n".

    Entry r + 1000 * s + 2000 * t, for r < 1000, is the group r, as its
    zero-padded digits for s = 0 (a group below the leading one) or with its
    leading zeros NUL for s = 1, then NUL, " " or "\n" for t = 0, 1 or 2.
    Only an endpoint's lowest group carries " " or "\n", so the leading group
    0 keeps its "0" there and is four NULs, a group above the leading one,
    at t = 0. The words are built from bytes: the same on any endianness.
    """
    r = np.arange(1000, dtype=np.uint16)[:, None]
    digits = (r // np.array([100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    leading = np.where(r < np.array([100, 10, 0], np.uint16), 0, digits)
    words = np.zeros((3, 2, 1000, 4), np.uint8)  # (t, s, r, byte)
    words[..., :3] = digits, leading
    words[..., 3] = np.frombuffer(b"\0 \n", np.uint8)[:, None, None]
    words[0, 1, 0] = 0
    words = words.view(np.uint32).ravel()
    words.setflags(write=False)
    return words


_WORDS = _export_words()


def _format_rows(rows: np.ndarray) -> str:
    """The "u v" lines of an (m, 2) array, m >= 1, of endpoints in [0, 2^32).

    Each endpoint becomes a record of words from _WORDS, one per 3-digit
    group that the largest endpoint needs, highest first; the lowest carries
    " " after u or "\n" after v. One translate deletes the NUL padding.
    """
    high = rows.astype(np.uint32).ravel()  # exact: endpoints lie below _MAX_SUPER < 2^32
    width = (len(str(high.max())) + 2) // 3  # 3-digit groups in the largest endpoint
    index = np.empty((high.size, width), np.uint32)
    for col in range(width - 1, 0, -1):  # lowest group first
        rest = high // np.uint32(1000)
        leading = (rest == 0).view(np.uint8)  # the leading group or one above it
        index[:, col] = high - rest * np.uint32(1000) + np.uint32(1000) * leading
        high = rest
    index[:, 0] = high + np.uint32(1000)  # below 1000 by the width: leading or above it
    index[0::2, -1] += np.uint32(2000)  # " " after u
    index[1::2, -1] += np.uint32(4000)  # "\n" after v
    return _WORDS.take(index).tobytes().translate(None, b"\0").decode("ascii")


def write_edge_list(graph: SuperGraph, out: TextIO) -> None:
    """Write the export format: a header line, then one "u v" line per edge.

    The edges go out _CHUNK_ROWS rows at a time, each chunk formatted by
    _format_rows with no per-edge Python loop.
    """
    sizes = graph.sizes  # non-decreasing in a sampled graph; a caller's may not be
    sizes = np.sort(sizes) if (sizes[1:] < sizes[:-1]).any() else sizes
    ends = np.flatnonzero(np.append(sizes[1:] != sizes[:-1], True)).tolist()  # each run's last
    spec = ",".join(f"{sizes[e]}x{e - s}" for s, e in zip([-1, *ends], ends))
    out.write(f"# N={graph.num_super} sizes={spec}\n")
    edges = graph.edges
    for start in range(0, edges.shape[0], _CHUNK_ROWS):
        out.write(_format_rows(edges[start:start + _CHUNK_ROWS]))
