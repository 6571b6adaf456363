import warnings

import numpy as np
import pytest

from supergraph import rng


def test_mix64_is_u64_and_deterministic():
    vals = [rng.mix64(x) for x in (0, 1, 2, 2**63, rng.MASK64)]
    assert all(0 <= v <= rng.MASK64 for v in vals)
    assert vals == [rng.mix64(x) for x in (0, 1, 2, 2**63, rng.MASK64)]
    assert len(set(vals)) == len(vals)


def test_uniform_range_and_reference_consistency():
    root = rng.stream_root(123, 7)
    scalar = [rng.uniform_at(root, k) for k in range(100)]
    batch = rng.uniforms(root, 0, 100)
    assert np.array_equal(np.array(scalar), batch)
    assert all(0.0 <= u < 1.0 for u in scalar)


def test_uniforms_wrap_silently_past_2_64():
    # root + index * GAMMA and both mix products leave 64 bits; uint64 arrays
    # wrap mod 2^64 without a warning, which is what uniform_at's masking does
    root, start = rng.MASK64, (1 << 63) - 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = rng.uniforms(root, start, 16)
    scalar = [rng.uniform_at(root, k) for k in range(start, start + 16)]
    assert np.array_equal(batch, np.array(scalar))


def test_uniforms_block_offsets_agree():
    root = rng.stream_root(9, 0)
    whole = rng.uniforms(root, 0, 64)
    pieces = np.concatenate([rng.uniforms(root, 0, 20), rng.uniforms(root, 20, 44)])
    assert np.array_equal(whole, pieces)


def test_streams_differ():
    a = rng.uniforms(rng.stream_root(5, 0), 0, 32)
    b = rng.uniforms(rng.stream_root(5, 1), 0, 32)
    c = rng.uniforms(rng.stream_root(6, 0), 0, 32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_marginals_look_uniform():
    # crude sanity: mean of 1e5 draws within 5 sigma of 1/2
    u = rng.uniforms(rng.stream_root(2024, 3), 0, 100_000)
    se = (1 / 12) ** 0.5 / 100_000 ** 0.5
    assert abs(u.mean() - 0.5) < 5 * se
    assert abs((u < 0.25).mean() - 0.25) < 5 * (0.25 * 0.75 / 100_000) ** 0.5


def test_mix64_array_matches_mix64():
    words = [0, 1, 2, 2**63, rng.MASK64, 0x0123456789ABCDEF]
    got = rng.mix64_array(np.array(words, np.uint64))
    assert got.tolist() == [rng.mix64(w) for w in words]


@pytest.mark.parametrize("n_streams", [1, 7, 8, 100])
def test_stream_roots_match_stream_root(n_streams):
    # fewer than eight keys take the Python-int path, more the array path
    streams = np.arange(n_streams, dtype=np.uint64) * 2 + 1
    keys = rng.stream_keys(streams)
    for seed in (0, 31337, rng.MASK64):
        roots = rng.stream_roots(seed, keys)
        assert roots.dtype == np.uint64
        assert roots.tolist() == [rng.stream_root(seed, int(s)) for s in streams]


def test_stream_uniforms_concatenate_runs_of_each_stream():
    # runs of three streams, one starting past 2^63 so the counters wrap
    roots = np.array([rng.stream_root(4, s) for s in range(3)], np.uint64)
    starts = np.array([0, 17, (1 << 63) - 2])
    counts = np.array([5, 1, 4])
    got = rng.stream_uniforms(roots, starts, counts)
    want = [rng.uniform_at(int(r), k) for r, s, c in zip(roots, starts, counts)
            for k in range(int(s), int(s) + int(c))]
    assert got.tolist() == want
