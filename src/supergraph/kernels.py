"""Edge-sampling kernel for G(N, K, p), in vectorised numpy.

Edge sampling walks size-class blocks. Within a block every super-vertex
pair shares one probability, so successes are generated by geometric-gap
skipping: expected cost O(successes), never O(pairs). Draws come from the
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
    slack, so the refill loop runs once in practice; batch_hint forces a
    smaller first batch (tests use it to exercise the stitching).
    """
    if p_blk <= 0.0 or npairs_f <= 0.0:
        return np.empty(0, np.int64)
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
        steps = np.floor(np.log1p(-u) / log_q) + 1.0
        cum = last + np.cumsum(steps)
        inside = cum < npairs_f
        if inside.all():
            chunks.append(cum.astype(np.int64))
            last = cum[-1]
            continue
        stop = int(np.argmin(inside))  # first overshoot ends the block
        chunks.append(cum[:stop].astype(np.int64))
        break
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


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
    nc = len(class_sizes)
    eu_parts = [np.empty(0, np.int64)]
    ev_parts = [np.empty(0, np.int64)]
    block = 0
    for a in range(nc):
        for b in range(a, nc):
            ca = int(class_counts[a])
            cb = int(class_counts[b])
            oa = int(class_offsets[a])
            ob = int(class_offsets[b])
            size_a = int(class_sizes[a])
            size_b = int(class_sizes[b])
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
            pos = _block_positions(float(space), p_blk, rng.stream_root(seed, stream))
            if constructive:
                pair = pos // ij
                keep = np.empty(pair.shape[0], np.bool_)
                if pair.shape[0]:
                    keep[0] = True
                    keep[1:] = pair[1:] != pair[:-1]
                pair = pair[keep]
            else:
                pair = pos
            if pair.shape[0] == 0:
                continue
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
