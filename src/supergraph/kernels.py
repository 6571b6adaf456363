"""Edge-sampling kernel for G(N, K, p), in vectorised numpy.

Edge sampling walks size-class blocks. Within a block every super-vertex
pair shares one probability, so successes are generated by geometric-gap
skipping: expected cost O(successes), never O(pairs). A block is one
straight path: one batch of draws, one cumulative sum of the gaps and one
searchsorted for the first position past the block. Draws come from the
counter-based streams of :mod:`supergraph.rng`, and linear positions
inside a block are unranked to index pairs in a fixed lexicographic
order, which is what makes seeds reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng

# direct sampler uses stream 2*block, constructive 2*block+1
_DIRECT_DOMAIN = 0
_CONSTRUCTIVE_DOMAIN = 1


def edge_probability(i: int, j: int, p: float) -> float:
    """Probability 1 - (1-p)^(i*j) that super-vertices of sizes i, j connect.

    Evaluated as -expm1(i*j*log1p(-p)), which stays accurate when p is tiny
    (sparse regime has p = c/n, easily 1e-6 at desk scale).
    """
    if i < 1 or j < 1:
        raise ValueError("sizes must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    if p == 1.0:
        return 1.0
    return -math.expm1(i * j * math.log1p(-p))


def _block_positions(npairs_f: float, p_blk: float, root: int,
                        batch_hint: int = 0) -> np.ndarray:
    """Hit positions of a Bernoulli(p_blk) sequence of length npairs_f (int64).

    Draws land in batches sized to cover the whole block with ~6 sigma
    slack, so the loop runs once in practice; batch_hint forces a smaller
    batch (tests use it to exercise the stitching). Every geometric step is
    at least 1, so the running positions never decrease and the first one at
    or past npairs_f, found by searchsorted, ends the block.
    """
    if p_blk >= 1.0:
        return np.arange(np.int64(npairs_f))
    log_q = math.log1p(-p_blk)
    chunks = []
    last = -1.0
    draw = 0
    while True:
        expect = (npairs_f - last) * p_blk
        batch = batch_hint if batch_hint > 0 else int(expect + 6.0 * math.sqrt(expect + 1.0)) + 32
        u = rng.uniforms(root, draw, batch)
        draw += batch
        cum = last + np.cumsum(np.floor(np.log1p(-u) / log_q) + 1.0)
        inside = int(np.searchsorted(cum, npairs_f))
        chunks.append(cum[:inside])
        if inside < batch:  # positions are whole floats below 2^53, so the cast is exact
            return np.concatenate(chunks, dtype=np.int64, casting="unsafe")
        last = cum[-1]


def _tri_rows(pos: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    pf = pos.astype(np.float64)
    k = np.floor((2.0 * m - 1.0 - np.sqrt((2.0 * m - 1.0) ** 2 - 8.0 * pf)) / 2.0).astype(np.int64)
    np.clip(k, 0, m - 2, out=k)
    while True:
        bad = k * (2 * m - k - 1) // 2 > pos
        if not bad.any():
            break
        k[bad] -= 1
    while True:
        nxt = (k + 1) * (2 * m - k - 2) // 2
        good = (k + 1 <= m - 2) & (nxt <= pos)
        if not good.any():
            break
        k[good] += 1
    l = pos - k * (2 * m - k - 1) // 2 + k + 1
    return k, l


def sample_edges(class_sizes, class_counts, class_offsets, p, seed, constructive=False):
    """Sample one realization's edge arrays (u, v), block by block, of <= 2^53 positions each."""
    p, seed = float(p), int(seed)
    classes = list(zip(class_sizes.tolist(), class_counts.tolist(), class_offsets.tolist()))
    eu_parts = [np.empty(0, np.int64)]
    ev_parts = [np.empty(0, np.int64)]
    block = 0
    for a, (size_a, ca, oa) in enumerate(classes):
        for b, (size_b, cb, ob) in enumerate(classes[a:], a):
            ij = size_a * size_b
            npairs = ca * (ca - 1) // 2 if a == b else ca * cb

            if constructive:
                # one Bernoulli(p) per underlying cross vertex pair; a hit
                # anywhere inside a super pair's ij-slot makes the super edge
                stream = 2 * block + _CONSTRUCTIVE_DOMAIN
                space = npairs * ij
                p_blk = p
            else:
                stream = 2 * block + _DIRECT_DOMAIN
                space = npairs
                p_blk = edge_probability(size_a, size_b, p)
            block += 1

            if npairs == 0 or p_blk <= 0.0:
                continue
            if space > 1 << 53:
                raise ValueError(f"block of sizes {size_a} and {size_b} has "
                                 f"{space:.3g} positions, past the 2^53 float64 counts exactly")
            pair = _block_positions(float(space), p_blk, rng.stream_root(seed, stream))
            if constructive:
                pair //= ij
                pair = pair[np.diff(pair, prepend=-1) != 0]
            if a == b:
                k, l = _tri_rows(pair, ca)
                eu_parts.append(oa + k)
                ev_parts.append(oa + l)
            else:
                eu_parts.append(oa + pair // cb)
                ev_parts.append(ob + pair % cb)
    return np.concatenate(eu_parts), np.concatenate(ev_parts)


def numba_enabled() -> bool:
    """Always False: there is one numpy lane; kept for the benchmark's provenance record."""
    return False


def warmup() -> None:
    """No-op: nothing is compiled; kept because the benchmark worker still calls it."""
