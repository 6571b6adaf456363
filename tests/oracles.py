"""Independent oracle implementations used only by tests.

Everything here deliberately avoids the code paths under test: components
via BFS instead of hook-and-jump labelling, pair probabilities via plain powers instead
of expm1/log1p, moments via exhaustive enumeration or 80-digit decimal
arithmetic, fixed points via bisection of the scalar S equation and damped
Newton on the two-type system instead of the production Newton iteration on S,
edge lines via one Python f-string per row instead of numpy digit buffers,
edge arrays via one Python iteration per size-class block instead of the
kernel's all-blocks pass.
"""

from collections import deque
from decimal import Decimal, localcontext
from itertools import combinations, product

import math

import numpy as np

from supergraph import rng
from supergraph.kernels import edge_probability


def bfs_component_sizes(n: int, edges) -> list[int]:
    """Component sizes (descending) by breadth-first labeling."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        size = 0
        while queue:
            x = queue.popleft()
            size += 1
            for y in adj.get(x, ()):
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def format_edge_lines(rows) -> str:
    """The export's "u v" lines, one f-string per row of integer pairs."""
    return "".join(f"{u} {v}\n" for u, v in rows)


def expand_sizes(counts: dict[int, int]) -> list[int]:
    sizes = []
    for i, k in sorted(counts.items()):
        sizes.extend([i] * k)
    return sizes


def enumerate_isolated_moments(counts: dict[int, int], p: float) -> tuple[float, float]:
    """(E[X], Var[X]) by exhausting all 2^(N(N-1)/2) super-graphs.

    Pair probabilities use plain powers 1 - (1-p)^(ij), a different
    evaluation path from the library's expm1 form.
    """
    sizes = expand_sizes(counts)
    n = len(sizes)
    pairs = list(combinations(range(n), 2))
    probs = [1.0 - (1.0 - p) ** (sizes[a] * sizes[b]) for a, b in pairs]
    e_x = 0.0
    e_x2 = 0.0
    for present in product((0, 1), repeat=len(pairs)):
        weight = 1.0
        degree = [0] * n
        for idx, on in enumerate(present):
            if on:
                weight *= probs[idx]
                a, b = pairs[idx]
                degree[a] += 1
                degree[b] += 1
            else:
                weight *= 1.0 - probs[idx]
        x = sum(1 for d in degree if d == 0)
        e_x += weight * x
        e_x2 += weight * x * x
    return e_x, e_x2 - e_x * e_x


def decimal_isolated_variance(counts: dict[int, int], p: float, digits: int = 80) -> float:
    """V[X] = E[X] + E[X(X-1)] - E[X]^2 in `digits`-digit decimal arithmetic, for 0 < p < 1.

    E[X(X-1)] sums q^(e_a + e_b - ij) over ordered pairs of distinct
    super-vertices, q = 1 - p and e_i = i(n-i), each power taken as
    exp(x ln q). The textbook form cancels: on the tests' inputs (N up to
    10^7, p down to 1e-15) it loses at most about 25 of the digits.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        ln_q = (1 - Decimal(p)).ln()
        n = sum(i * k for i, k in counts.items())
        power = lambda x: (x * ln_q).exp()  # noqa: E731
        mean = sum(k * power(i * (n - i)) for i, k in counts.items())
        pairs = sum(ki * (kj - (i == j)) * power(i * (n - i) + j * (n - j) - i * j)
                    for i, ki in counts.items() for j, kj in counts.items())
        return float(mean + pairs - mean * mean)


def small_configs(max_super: int = 4, size_alphabet=(1, 2, 3)):
    """All configurations with N <= max_super over a small size alphabet."""
    configs = []

    def rec(alphabet, remaining, current):
        if current:
            configs.append(dict(current))
        if remaining == 0 or not alphabet:
            return
        size = alphabet[0]
        for count in range(1, remaining + 1):
            rec(alphabet[1:], remaining - count, {**current, size: count})
        rec(alphabet[1:], remaining, current)

    rec(tuple(size_alphabet), max_super, {})
    unique = {tuple(sorted(c.items())): c for c in configs}
    return [c for c in unique.values() if sum(c.values()) <= max_super]


def bisect_homogeneous_survival(c: float, tol: float = 1e-14) -> float:
    """Maximal root of rho = 1 - exp(-c rho) by bisection (0 when c <= 1)."""
    if c <= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - (1.0 - math.exp(-c * mid)) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def bisect_giant_fraction(mu: dict[int, float], c: float) -> float:
    """rho of the rank-1 kernel (c/u) i j by bisection on the scalar S equation.

    g(S) = sum_j j mu_j (1 - exp(-c j S / u)) - S is positive on (0, S*) and
    nonpositive on [S*, u] above c* = u / sum_j j^2 mu_j. Bisects [0, u] until
    the midpoint stops moving, then rho = sum_i mu_i (1 - exp(-c i S / u)).
    u and c* are recomputed from mu; nothing comes from the library.
    """
    u = math.fsum(j * m for j, m in mu.items())
    if c * math.fsum(j * j * m for j, m in mu.items()) <= u:
        return 0.0

    def g(s):
        return math.fsum([*(j * m * -math.expm1(-c * j * s / u) for j, m in mu.items()), -s])

    lo, hi = 0.0, u
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.fsum(m * -math.expm1(-c * i * mid / u) for i, m in mu.items())


def newton_two_type(mu: dict[int, float], u: float, c: float) -> dict[int, float]:
    """Damped Newton with numerical Jacobian on the two-type system.

    Solves x_i = 1 - exp(-(c i / u) * sum_j j mu_j x_j) for supports of
    exactly two sizes; independent of the production fixed-point iteration.
    """
    keys = sorted(mu)
    assert len(keys) == 2

    def residual(x):
        s = sum(j * mu[j] * x[j] for j in keys)
        return [x[i] - (1.0 - math.exp(-(c * i / u) * s)) for i in keys]

    x = {keys[0]: 0.9, keys[1]: 0.99}
    for _ in range(400):
        f0 = residual(x)
        h = 1e-8
        jac = []
        for j in keys:
            xp = dict(x)
            xp[j] += h
            fp = residual(xp)
            jac.append([(fp[r] - f0[r]) / h for r in range(2)])
        # jac[col][row] holds dF_row/dx_col; solve J dx = -f
        j00, j01 = jac[0][0], jac[1][0]
        j10, j11 = jac[0][1], jac[1][1]
        det = j00 * j11 - j01 * j10
        dx0 = (-f0[0] * j11 + f0[1] * j01) / det
        dx1 = (-j00 * f0[1] + j10 * f0[0]) / det
        step = 1.0
        while True:  # damping: halve until inside [0, 1]
            cand = {keys[0]: x[keys[0]] + step * dx0, keys[1]: x[keys[1]] + step * dx1}
            if all(0.0 <= cand[k] <= 1.0 for k in keys):
                break
            step *= 0.5
        x = cand
        if abs(dx0) + abs(dx1) < 1e-13:
            break
    return x


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


def reference_sample_edges(class_sizes, class_counts, class_offsets, p, seed, constructive=False):
    """The kernel's edge arrays (u, v), one Python iteration per size-class block.

    Same streams, positions and unranking as ``kernels.sample_edges``; a
    block past 2^53 positions raises when the loop reaches it. They come
    out in block order, each block's in position order, while the
    kernel joins its passes in pass order, so tests compare the two in
    canonical order (sorted by the key u*N + v).
    """
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
                stream = 2 * block + 1
                space = npairs * ij
                p_blk = p
            else:
                stream = 2 * block
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
