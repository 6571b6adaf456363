"""Edge-sampling kernel for G(N, K, p), in vectorised numpy.

The super-vertex pairs between two size classes, or within one, form a
block whose pairs share one probability, so its successes are generated by
geometric-gap skipping: expected cost O(successes), never O(pairs). The
blocks of a graph are sampled together, not one by one:

* A seed-free, columnar table of the graph's live blocks, built once per
  (classes, p, sampler) and memoised, holds each block's stream key,
  number of positions, probability and ``log1p(-p)``. Each pass is a slice
  of it and so holds its own blocks' stream keys. Building it raises for a
  block past 2^53 positions before anything is drawn.
* A pass draws one batch for each of its blocks in one run of the
  SplitMix64 finalizer over block-local counters, takes one cumulative sum
  of all the integer gaps and cuts every block at its first position past
  the block with one searchsorted. A block whose batch ended short draws
  again from where it stopped; the batches carry ~6 sigma slack, so that
  is rare.
* A block whose first batch holds ``_OWN_PASS_DRAWS`` draws or more gets a
  pass of its own, where its values broadcast as scalars: a graph of a few
  large blocks does no per-draw bookkeeping. All smaller blocks share one
  pass, which is what makes a graph of many size classes cheap.

Draws come from the counter-based streams of :mod:`supergraph.rng`, and
linear positions inside a block are unranked to index pairs in a fixed
lexicographic order, which is what makes seeds reproduce exactly. The edge
arrays come out pass after pass, in no order the model defines;
:class:`supergraph.sampler.SuperGraph` puts them in canonical order.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import rng

# direct sampler uses stream 2*block, constructive 2*block+1
_DIRECT_DOMAIN = 0
_CONSTRUCTIVE_DOMAIN = 1

# A block whose first batch holds this many draws gets a pass of its own. On 2
# vCPUs, thresholds from 2^12 to 2^16 sample the 58-class power-law graph
# (1,711 blocks) and the 3-block graph 1x500000,2x250000 equally fast within
# noise; one pass for every block makes the 3-block graph 1.6x slower.
_OWN_PASS_DRAWS = 1 << 13
# a block's clipped gaps in one batch sum to at most this, a pass's to at most twice it (< 2^63)
_SUM_LIMIT = 1 << 61


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


class _Schedule(NamedTuple):
    """One round of draws over a run of a pass's open blocks."""

    run: np.ndarray      # the blocks that draw, ascending
    batch: np.ndarray    # draws of each
    starts: np.ndarray   # where each block's draws begin in the round
    ends: np.ndarray     # and end
    last: np.ndarray     # the position each block's gaps start from
    dist: np.ndarray     # space - last: a running gap sum this large leaves the block
    draw: np.ndarray     # draws each block made in earlier rounds
    clip: object         # dist + 1 as float64 per draw, or the one block's value
    divisor: object      # log_q per draw, or the one block's value


class _Blocks(NamedTuple):
    """Read-only arrays over the blocks of one pass, in block order; memoised plans share them."""

    keys: np.ndarray     # rng.stream_keys of the block's stream
    space: np.ndarray    # positions: super pairs, or underlying vertex pairs (constructive)
    p_blk: np.ndarray    # success probability of a position
    log_q: np.ndarray    # math.log1p(-p_blk); -inf where p_blk is 1, which makes every gap 1
    ij: np.ndarray       # positions per super pair (constructive; 1 in the direct sampler)
    width: np.ndarray    # count of class b: the row length, or the side of a diagonal block
    first_u: np.ndarray  # offset of class a
    first_v: np.ndarray  # offset of class b
    diag: np.ndarray     # the block pairs a class with itself
    first: _Schedule     # the first round


def _freeze(fields):
    """``fields`` as given, with every array among them marked read-only."""
    for field in fields:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
    return fields


def _first_batch(dist, p_blk):
    """Draws that cover ``dist`` positions at ``p_blk`` with ~6 sigma slack."""
    expect = dist * p_blk
    return (expect + 6.0 * np.sqrt(expect + 1.0)).astype(np.int64) + 32


@functools.lru_cache(maxsize=16)
def _plan(classes: tuple, p: float, constructive: bool) -> tuple[_Blocks, ...]:
    """The passes that sample a graph, cut from its seed-free block table; () if no block is live."""
    rows = []
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
            log_q = math.log1p(-p_blk) if p_blk < 1.0 else -math.inf
            rows.append((stream, space, p_blk, log_q, ij if constructive else 1, cb, oa, ob, a == b))
    if not rows:
        return ()

    dtypes = (np.uint64, np.int64, np.float64, np.float64, np.int64, np.int64, np.int64, np.int64, bool)
    streams, *cols = (np.array(col, t) for col, t in zip(zip(*rows), dtypes))
    table = _Blocks(rng.stream_keys(streams), *cols, None)
    # each large block is a pass of its own; the small ones share the last
    own = _first_batch(table.space + 1, table.p_blk) >= _OWN_PASS_DRAWS
    members = [[i] for i in np.flatnonzero(own).tolist()]
    if not own.all():
        members.append(np.flatnonzero(~own))
    passes = []
    for idx in members:
        blk = _Blocks(*_freeze([col[idx] for col in table[:-1]]), None)
        k = len(idx)
        first = _schedule(blk, np.arange(k), np.full(k, -1, np.int64), np.zeros(k, np.int64))
        passes.append(blk._replace(first=_freeze(first)))
    return tuple(passes)


def _spread(values: np.ndarray, counts: np.ndarray):
    """values[b] repeated counts[b] times, or the value itself when there is one block."""
    return values[0] if values.shape[0] == 1 else np.repeat(values, counts)


def _schedule(blk: _Blocks, todo: np.ndarray, last: np.ndarray, draw: np.ndarray,
              batch_hint: np.ndarray | None = None) -> _Schedule:
    """The next round over the open blocks ``todo``, at ``last`` after ``draw`` draws each.

    A batch covers the rest of its block with ~6 sigma slack, so one round is
    the rule; ``batch_hint[b] > 0`` fixes block b's batch instead (tests use
    it to exercise the refill). A batch is capped so that its clipped gaps
    sum to at most 2^61, and the round takes the longest run of open blocks
    whose caps add up to at most 2^62, so no running sum leaves int64.

    Every round makes progress, so the refill in ``_hits`` ends. A batch is
    at least 32 before its cap and a hint at least 1. A block has at most
    2^53 positions, so its cap ``2^61 // (dist + 1)`` is at least 255, and
    one capped block always fits the round's 2^62: each round draws at
    least one number for at least one open block. Every gap is at least 1,
    so each block that draws either closes or moves ``last`` forward, and
    ``last`` stays below ``space``.
    """
    dist = blk.space[todo] - last
    batch = _first_batch(dist, blk.p_blk[todo])
    if batch_hint is not None:
        batch = np.where(batch_hint[todo] > 0, batch_hint[todo], batch)
    clip = dist + 1
    np.minimum(batch, _SUM_LIMIT // clip, out=batch)
    n = np.searchsorted(np.cumsum(batch * clip, dtype=np.float64), 2.0 * _SUM_LIMIT, "right")
    run, batch = todo[:n], batch[:n]
    ends = np.cumsum(batch)
    starts = ends - batch
    return _Schedule(run, batch, starts, ends, last[:n], dist[:n], draw[:n],
                     _spread(clip[:n].astype(np.float64), batch), _spread(blk.log_q[run], batch))


def _round(sched: _Schedule, roots: np.ndarray):
    """Draw one round and cut each block at its first position past the block.

    Returns the hits (block after block), the number in each block, which
    blocks' batches ended short of their end, and (None when none did) the
    position each block reached.
    """
    batch, starts, ends = sched.batch, sched.starts, sched.ends
    n = int(ends[-1])
    gaps = rng.stream_uniforms(roots[sched.run], sched.draw, batch)
    np.negative(gaps, out=gaps)
    np.log1p(gaps, out=gaps)
    # below p_blk ~ 2e-307 the quotient can pass the float64 maximum; the +inf
    # gap is clipped to dist + 1 below like any other gap that leaves the block
    with np.errstate(over="ignore"):
        gaps /= sched.divisor
    np.floor(gaps, out=gaps)
    gaps += 1.0
    # a gap of dist or more leaves the block, so clipping it keeps every running
    # sum up to each block's first overshoot exact; the clip is dist + 1 because
    # float64 rounds 2^53 + 1 down to 2^53 but 2^53 + 2 stays
    cum = np.minimum(gaps, sched.clip, out=np.empty(n, np.int64), casting="unsafe")
    np.cumsum(cum, out=cum)
    before = cum[starts - 1]
    before[0] = 0
    cut = np.searchsorted(cum, before + sched.dist)
    short = cut >= ends
    np.minimum(cut, ends, out=cut)
    found = cut - starts
    if batch.shape[0] == 1:
        hits = cum[:found[0]] + sched.last[0]
    else:
        hits = cum[np.arange(n) < np.repeat(cut, batch)]
        hits += np.repeat(sched.last - before, found)
    reached = sched.last + cum[ends - 1] - before if short.any() else None
    return hits, found, short, reached


def _hits(blk: _Blocks, roots: np.ndarray, batch_hint: np.ndarray | None = None):
    """Hit positions of every block of a pass (int64, block after block) and the number in each."""
    k = blk.space.shape[0]
    if batch_hint is None:
        sched = blk.first
    else:
        sched = _schedule(blk, np.arange(k), np.full(k, -1, np.int64), np.zeros(k, np.int64),
                          batch_hint)
    hits, found, short, reached = _round(sched, roots)
    if reached is None and sched.run.shape[0] == k:
        return hits, found
    # some block is still open: draw on from where each one stopped
    todo = np.arange(k)
    last = np.full(k, -1, np.int64)
    draw = np.zeros(k, np.int64)
    total = np.zeros(k, np.int64)
    total[sched.run] = found
    while True:
        run = sched.run
        draw[run] += sched.batch
        if reached is not None:
            last[run] = reached
        todo = np.concatenate((run[short], todo[run.shape[0]:]))
        if not todo.size:
            return hits, total
        sched = _schedule(blk, todo, last[todo], draw[todo], batch_hint)
        got, found, short, reached = _round(sched, roots)
        hits = np.insert(hits, np.repeat(np.cumsum(total)[sched.run], found), got)
        total[sched.run] += found


def _tri_rows(pos: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """Row k < column l of each rank in the lexicographic order of pairs of m items.

    m is one side for every rank or one per rank. Row k holds the m-1-k
    ranks from k(2m-k-1)/2 on; the float root of that quadratic guesses k,
    and whole-number checks move each guess to its row.
    """
    side = 2.0 * m - 1.0
    k = np.floor((side - np.sqrt(side * side - 8.0 * pos)) / 2.0).astype(np.int64)
    np.clip(k, 0, m - 2, out=k)
    while True:
        off = pos - k * (2 * m - 1 - k) // 2
        low = off < 0
        high = off >= m - 1 - k
        if not (low.any() or high.any()):
            return k, off + k + 1
        k[low] -= 1
        k[high] += 1


def _pass_edges(blk: _Blocks, roots: np.ndarray, constructive: bool):
    """Edges (u, v) of one pass's blocks, block after block."""
    pair, found = _hits(blk, roots)
    k = found.shape[0]
    owner = None if k == 1 else np.repeat(np.arange(k), found)

    def per_hit(values):
        return values[0] if owner is None else values[owner]

    if constructive:
        np.floor_divide(pair, per_hit(blk.ij), out=pair)
        # a super pair is one edge however many of its vertex pairs hit, but
        # equal pair ranks in two blocks are two edges
        keep = np.empty(pair.shape[0], bool)
        np.not_equal(pair[1:], pair[:-1], out=keep[1:])
        first = np.cumsum(found) - found
        keep[first[found > 0]] = True
        pair = pair[keep]
        if owner is not None:
            owner = owner[keep]

    width = per_hit(blk.width)
    if blk.diag.all():
        rows, cols = _tri_rows(pair, width)
    else:
        rows, cols = np.divmod(pair, width)
        if blk.diag.any():
            on_diag = blk.diag[owner]
            rows[on_diag], cols[on_diag] = _tri_rows(pair[on_diag], width[on_diag])
    rows += per_hit(blk.first_u)
    cols += per_hit(blk.first_v)
    return rows, cols


def sample_edges(class_sizes, class_counts, class_offsets, p, seed, constructive=False):
    """Sample one realization's edge arrays (u, v), every block of <= 2^53 positions.

    The arrays hold each pass's edges in turn; ``SuperGraph`` owns their order.
    """
    passes = _plan(tuple(zip(class_sizes.tolist(), class_counts.tolist(), class_offsets.tolist())),
                   float(p), bool(constructive))
    if not passes:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    seed = int(seed)
    done = [_pass_edges(blk, rng.stream_roots(seed, blk.keys), constructive) for blk in passes]
    if len(done) == 1:
        return done[0]
    return np.concatenate([u for u, _ in done]), np.concatenate([v for _, v in done])


def numba_enabled() -> bool:
    """Always False: there is one numpy lane; kept for the benchmark's provenance record."""
    return False


def warmup() -> None:
    """No-op: nothing is compiled; kept because the benchmark worker still calls it."""
