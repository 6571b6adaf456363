"""Edge-sampling kernel for G(N, K, p), in vectorised numpy.

The super-vertex pairs between two size classes, or within one, form a
block whose pairs share one probability, so its successes are generated by
geometric-gap skipping: expected cost O(successes), never O(pairs). The
blocks of a graph are sampled together, not one by one:

* A seed-free, columnar table of the graph's live blocks, built once per
  (classes, p, sampler) and memoised with the rounds that start every
  block, holds each block's stream key, number of positions, probability
  and ``log1p(-p)``. Building it raises for a block past 2^53 positions
  before anything is drawn.
* A round draws one batch for each block of a run of open blocks in one run
  of the SplitMix64 finalizer over block-local counters, takes one
  cumulative sum of all the integer gaps, cuts every block at its first
  position past the block with one searchsorted and unranks the hits to
  edges. A batch covers the rest of its block with ~6 sigma slack but holds
  at most ``_ROUND_DRAWS`` draws; a block whose batch ended short draws on
  from where it stopped in a later round.
* A block whose batch holds ``_ALONE_DRAWS`` draws or more has a round of
  its own, where its values broadcast as scalars: a graph of a few large
  blocks does no per-draw bookkeeping. Smaller blocks share rounds, which
  is what makes a graph of many size classes cheap.

Draws come from the counter-based streams of :mod:`supergraph.rng`, and
linear positions inside a block are unranked to index pairs in a fixed
lexicographic order, which is what makes seeds reproduce exactly: where a
round ends changes only which draws past a block's end go unused. The edge
arrays come out round after round, in no order the model defines;
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

# A block whose batch holds this many draws has a round of its own. On 2
# vCPUs, thresholds from 2^12 to 2^16 sample the 58-class power-law graph
# (1,711 blocks) and the 3-block graph 1x500000,2x250000 equally fast within
# noise; one round for every block makes the 3-block graph 1.6x slower.
_ALONE_DRAWS = 1 << 13
# The most draws in one round. A prototype with rounds of 2^16 sampled a
# 4e6-vertex block faster, but cut a 500k-vertex block into 8 rounds and made
# 3 giant trials on it under 2 workers about 10% slower.
_ROUND_DRAWS = 1 << 20
# a block's clipped gaps in one batch sum to at most this, a round's to at most twice it (< 2^63)
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
    """One round of draws over a run of open blocks."""

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
    """Read-only arrays over a graph's live blocks, in block order; memoised plans share them."""

    keys: np.ndarray     # rng.stream_keys of the block's stream
    space: np.ndarray    # positions: super pairs, or underlying vertex pairs (constructive)
    p_blk: np.ndarray    # success probability of a position
    log_q: np.ndarray    # math.log1p(-p_blk); -inf where p_blk is 1, which makes every gap 1
    ij: np.ndarray       # positions per super pair (constructive; 1 in the direct sampler)
    width: np.ndarray    # count of class b: the row length, or the side of a diagonal block
    first_u: np.ndarray  # offset of class a
    first_v: np.ndarray  # offset of class b
    diag: np.ndarray     # the block pairs a class with itself


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
def _plan(classes: tuple, p: float, constructive: bool) -> tuple[_Blocks, tuple[_Schedule, ...]] | None:
    """A graph's seed-free block table and the rounds that start every block; None if none is live.

    The rounds that start every block depend on the graph and p alone, so
    they are memoised with the table; ``sample_edges`` schedules per call
    only the rounds that finish blocks whose batch ended short. Both go
    through ``_schedule``, so the memo is not a second scheduling path. On
    the 58-class power-law graph (N = 100k, 1,698 live blocks) the last of
    its 3 first rounds holds 1,696 blocks and 129,498 draws; scheduling
    every round per call took ``sample_edges`` from 6.5 to 7.7 ms a call
    (median of 15, 2-vCPU VM).
    """
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
        return None

    dtypes = (np.uint64, np.int64, np.float64, np.float64, np.int64, np.int64, np.int64, np.int64, bool)
    streams, *cols = (np.array(col, t) for col, t in zip(zip(*rows), dtypes))
    blk = _Blocks(*_freeze([rng.stream_keys(streams), *cols]))
    rounds = []
    todo = np.arange(len(rows))
    while todo.size:
        k = todo.shape[0]
        rounds.append(_freeze(_schedule(blk, todo, np.full(k, -1, np.int64), np.zeros(k, np.int64))))
        todo = todo[rounds[-1].run.shape[0]:]
    return blk, tuple(rounds)


def _spread(values: np.ndarray, counts: np.ndarray):
    """values[b] repeated counts[b] times, or the value itself when there is one block."""
    return values[0] if values.shape[0] == 1 else np.repeat(values, counts)


def _schedule(blk: _Blocks, todo: np.ndarray, last: np.ndarray, draw: np.ndarray) -> _Schedule:
    """The next round over the open blocks ``todo``, at ``last`` after ``draw`` draws each.

    A batch covers the rest of its block with ~6 sigma slack, capped at
    _ROUND_DRAWS and so that its clipped gaps sum to at most 2^61. The round
    takes the longest run of open blocks whose batches add up to at most
    _ROUND_DRAWS and whose caps add up to at most 2^62, so no running sum
    leaves int64; a block of _ALONE_DRAWS draws or more has a round alone.

    Every round makes progress, so sampling ends. A batch is at least 32
    before its caps. A block has at most 2^53 positions, so its cap
    ``2^61 // (dist + 1)`` is at least 255, and _ROUND_DRAWS is at least 1:
    the first open block always fits a round, so each round draws at least
    one number for at least one open block. Every gap is at least 1, so
    each block that draws either closes or moves ``last`` forward, and
    ``last`` stays below ``space``.
    """
    dist = blk.space[todo] - last
    batch = _first_batch(dist, blk.p_blk[todo])
    clip = dist + 1
    np.minimum(batch, _SUM_LIMIT // clip, out=batch)
    np.minimum(batch, _ROUND_DRAWS, out=batch)
    ends = np.cumsum(batch)
    n = min(np.searchsorted(ends, _ROUND_DRAWS, "right"),
            np.searchsorted(np.cumsum(batch * clip, dtype=np.float64), 2.0 * _SUM_LIMIT, "right"))
    alone = np.flatnonzero(batch[:n] >= _ALONE_DRAWS)
    if alone.size:
        n = max(int(alone[0]), 1)
    run, batch, ends = todo[:n], batch[:n], ends[:n]
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


def _round_edges(blk: _Blocks, sched: _Schedule, pair: np.ndarray, found: np.ndarray,
                 constructive: bool):
    """Edges (u, v) of one round's hit positions ``pair``, block after block."""
    run = sched.run
    owner = None if run.shape[0] == 1 else np.repeat(run, found)

    def per_hit(values):
        return values[run[0]] if owner is None else values[owner]

    if constructive:
        np.floor_divide(pair, per_hit(blk.ij), out=pair)
        # a super pair is one edge however many of its vertex pairs hit, in
        # this round or the block's last one, but equal ranks in two blocks
        # are two edges; a fresh block's last is -1, a rank no pair has
        keep = np.empty(pair.shape[0], bool)
        np.not_equal(pair[1:], pair[:-1], out=keep[1:])
        some = found > 0
        first = (np.cumsum(found) - found)[some]
        keep[first] = pair[first] != sched.last[some] // blk.ij[run[some]]
        pair = pair[keep]
        if owner is not None:
            owner = owner[keep]

    width = per_hit(blk.width)
    diag = blk.diag[run]
    if diag.all():
        rows, cols = _tri_rows(pair, width)
    else:
        rows, cols = np.divmod(pair, width)
        if diag.any():
            on_diag = blk.diag[owner]
            rows[on_diag], cols[on_diag] = _tri_rows(pair[on_diag], width[on_diag])
    rows += per_hit(blk.first_u)
    cols += per_hit(blk.first_v)
    return rows, cols


def sample_edges(class_sizes, class_counts, class_offsets, p, seed, constructive=False):
    """Sample one realization's edge arrays (u, v), every block of <= 2^53 positions.

    The arrays hold each round's edges in turn; ``SuperGraph`` owns their order.
    Several rounds are joined into one (2, m) array, which unpacks as (u, v).
    """
    plan = _plan(tuple(zip(class_sizes.tolist(), class_counts.tolist(), class_offsets.tolist())),
                 float(p), bool(constructive))
    if plan is None:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    blk, first = plan
    roots = rng.stream_roots(int(seed), blk.keys)
    rounds = iter(first)
    # the blocks whose batch ended short, the position each reached and its draws so far
    todo = last = draw = np.empty(0, np.int64)
    done = []
    while True:
        sched = next(rounds, None)
        if sched is None:
            if not todo.size:
                break
            sched = _schedule(blk, todo, last, draw)
            n = sched.run.shape[0]
            todo, last, draw = todo[n:], last[n:], draw[n:]
        pair, found, short, reached = _round(sched, roots)
        done.append(_round_edges(blk, sched, pair, found, constructive))
        if reached is not None:
            todo = np.concatenate((todo, sched.run[short]))
            last = np.concatenate((last, reached[short]))
            draw = np.concatenate((draw, sched.draw[short] + sched.batch[short]))
    if len(done) == 1:
        return done[0]
    return np.concatenate([u for u, _ in done] + [v for _, v in done]).reshape(2, -1)


def numba_enabled() -> bool:
    """Always False: there is one numpy lane; kept for the benchmark's provenance record."""
    return False


def warmup() -> None:
    """No-op: nothing is compiled; kept because the benchmark worker still calls it."""
