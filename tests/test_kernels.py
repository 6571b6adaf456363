import numpy as np
import pytest

from supergraph import kernels, rng


def _tri_pairs_reference(m):
    return [(k, l) for k in range(m) for l in range(k + 1, m)]


class TestTriangularUnranking:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 60])
    def test_numpy_unranking_is_bijective(self, m):
        npairs = m * (m - 1) // 2
        pos = np.arange(npairs, dtype=np.int64)
        k, l = kernels._tri_rows(pos, m)
        assert list(zip(k.tolist(), l.tolist())) == _tri_pairs_reference(m)


class TestBlockPositions:
    def test_positions_prefix_property(self):
        # batched generation must cut at the first overshoot, like the
        # sequential loop does
        root = rng.stream_root(4, 8)
        full = kernels._block_positions(10_000.0, 0.01, root)
        assert (np.diff(full) > 0).all()
        assert full[-1] < 10_000

    @pytest.mark.parametrize("hint", [1, 3, 7, 64])
    def test_batched_stitching_matches_single_batch(self, hint):
        # tiny forced batches make the refill loop run many times; the
        # positions must not depend on the batching
        root = rng.stream_root(21, 2)
        want = kernels._block_positions(50_000.0, 0.002, root)
        got = kernels._block_positions(50_000.0, 0.002, root, batch_hint=hint)
        assert np.array_equal(want, got)
