"""Counter-based random streams built on the SplitMix64 finalizer.

Draw ``k`` of stream ``s`` under seed ``seed`` is a pure function of the
triple, so any worker can generate any slice of any stream without
coordination, and results never depend on scheduling or batch sizes.
``stream_uniforms`` is the vectorised form of ``uniform_at`` over runs of
many streams at once, which is how the edge kernel in
:mod:`supergraph.kernels` draws, and ``stream_roots`` that of
``stream_root``; ``tests/test_rng.py`` pins each array form against its
scalar one.
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

_U = np.uint64
_S11, _S27, _S30, _S31 = _U(11), _U(27), _U(30), _U(31)
_UM1, _UM2, _UGAMMA = _U(_M1), _U(_M2), _U(GAMMA)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche hash on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of every word of a uint64 array, in place; returns ``z``.

    uint64 arrays wrap mod 2^64 without a warning (numpy warns only on
    scalar overflow), which is the masking of ``mix64``.
    """
    t = z >> _S30
    z ^= t
    z *= _UM1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _UM2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def stream_root(seed: int, stream: int) -> int:
    """Derive the base state of an independent stream from (seed, stream id)."""
    return mix64(mix64(seed ^ _SEED_SALT) + mix64(stream ^ _STREAM_SALT))


def stream_keys(streams: np.ndarray) -> np.ndarray:
    """The seed-free half of ``stream_root``, ``mix64(stream ^ salt)``, of each stream id."""
    return mix64_array(np.asarray(streams, np.uint64) ^ _U(_STREAM_SALT))


def stream_roots(seed: int, keys: np.ndarray) -> np.ndarray:
    """``stream_root(seed, s)`` of every stream s whose ``stream_keys`` entry is in keys."""
    base = mix64(seed ^ _SEED_SALT)
    if keys.shape[0] < 8:  # a few Python-int mixes cost less than eight array passes
        return np.array([mix64(base + k) for k in keys.tolist()], np.uint64)
    return mix64_array(keys + _U(base))


def uniform_at(root: int, index: int) -> float:
    """Draw ``index`` of the stream with base ``root``, uniform on [0, 1)."""
    raw = mix64((root + index * GAMMA) & MASK64)
    return (raw >> 11) * _INV_2_53


def stream_uniforms(roots: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Draws ``starts[b] .. starts[b] + counts[b] - 1`` of the stream with base ``roots[b]``,
    stream after stream, as one float64 array."""
    ends = np.cumsum(counts)
    # element i of the result is draw i - (ends[b] - counts[b]) + starts[b] of stream b
    base = roots + (starts - (ends - counts)).astype(np.uint64) * _UGAMMA
    z = np.arange(ends[-1], dtype=np.uint64)
    z *= _UGAMMA
    z += base[0] if base.shape[0] == 1 else np.repeat(base, counts)
    mix64_array(z)
    z >>= _S11
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def uniforms(root: int, start: int, count: int) -> np.ndarray:
    """Vectorized block of draws ``start .. start+count-1`` of a stream."""
    return stream_uniforms(np.array([root], np.uint64), np.array([start]), np.array([count]))
