"""Counter-based random streams built on the SplitMix64 finalizer.

Draw ``k`` of stream ``s`` under seed ``seed`` is a pure function of the
triple, so any worker can generate any slice of any stream without
coordination, and results never depend on scheduling or batch sizes.
``uniforms`` is the vectorised form of ``uniform_at`` that the edge kernel
in :mod:`supergraph.kernels` draws from; ``tests/test_rng.py`` pins the two
against each other.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # odd Weyl increment
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SEED_SALT = 0x71EE2AC3873B3D1F
_STREAM_SALT = 0xD6E8FEB86659FD93

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche hash on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def stream_root(seed: int, stream: int) -> int:
    """Derive the base state of an independent stream from (seed, stream id)."""
    return mix64(mix64(seed ^ _SEED_SALT) + mix64(stream ^ _STREAM_SALT))


def uniform_at(root: int, index: int) -> float:
    """Draw ``index`` of the stream with base ``root``, uniform on [0, 1)."""
    raw = mix64((root + index * GAMMA) & MASK64)
    return (raw >> 11) * _INV_2_53


def uniforms(root: int, start: int, count: int) -> np.ndarray:
    """Vectorized block of draws ``start .. start+count-1`` of a stream."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(root) + idx * np.uint64(GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53
