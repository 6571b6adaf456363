import numpy as np
import pytest

from oracles import bfs_component_sizes
from supergraph import kernels, rng
from supergraph.config import SizeConfiguration
from supergraph.graph import (connected_components, degree_histogram,
                              isolated_count)
from supergraph.sampler import SuperGraph, resolve_p, sample_direct


def graph_of(n, edges, sizes=None):
    return SuperGraph(
        sizes=np.array(sizes if sizes is not None else [1] * n, np.int64),
        edges=np.array(edges, np.int64).reshape(-1, 2))


class TestComponents:
    def test_empty_graph(self):
        summary = connected_components(graph_of(5, []))
        assert summary.sizes_desc.tolist() == [1, 1, 1, 1, 1]
        assert summary.isolated_count == 5

    def test_complete_graph(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        summary = connected_components(graph_of(4, edges))
        assert summary.sizes_desc.tolist() == [4]
        assert summary.isolated_count == 0

    def test_hand_trace(self):
        summary = connected_components(graph_of(5, [(0, 1), (2, 3)]))
        assert summary.sizes_desc.tolist() == [2, 2, 1]
        assert summary.isolated_count == 1

    def test_sizes_sum_to_n(self):
        summary = connected_components(graph_of(6, [(0, 1), (1, 2), (4, 5)]))
        assert summary.sizes_desc.sum() == 6


class TestIsConnected:
    """Connected means one component."""

    def test_singleton(self):
        assert connected_components(graph_of(1, [])).sizes_desc.shape[0] == 1

    def test_path(self):
        assert connected_components(graph_of(3, [(0, 1), (1, 2)])).sizes_desc.shape[0] == 1

    def test_disconnected(self):
        assert connected_components(graph_of(3, [(0, 1)])).sizes_desc.shape[0] != 1


class TestIsolated:
    def test_empty(self):
        assert isolated_count(graph_of(7, [])) == 7

    def test_star(self):
        assert isolated_count(graph_of(5, [(0, i) for i in range(1, 5)])) == 0

    def test_hand_trace(self):
        assert isolated_count(graph_of(4, [(0, 1)])) == 2


class TestDegreeHistogram:
    def test_empty(self):
        assert degree_histogram(graph_of(3, [])) == {0: 3}

    def test_triangle(self):
        assert degree_histogram(graph_of(3, [(0, 1), (0, 2), (1, 2)])) == {2: 3}

    def test_path(self):
        assert degree_histogram(graph_of(3, [(0, 1), (1, 2)])) == {1: 2, 2: 1}

    def test_handshake_on_random_graphs(self):
        cfg = SizeConfiguration({1: 30, 2: 10, 4: 5})
        params = resolve_p("raw", 0.05, cfg)
        for t in range(10):
            graph = sample_direct(cfg, params, t)
            hist = degree_histogram(graph)
            assert sum(hist.values()) == graph.num_super
            assert sum(k * z for k, z in hist.items()) == 2 * graph.edge_count


class TestLargestFraction:
    """L1 / N, the giant-component observable."""

    def test_empty(self):
        assert connected_components(graph_of(5, [])).sizes_desc[0] / 5 == pytest.approx(0.2)

    def test_complete(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert connected_components(graph_of(4, edges)).sizes_desc[0] / 4 == 1.0

    def test_hand_trace(self):
        assert connected_components(graph_of(4, [(0, 1)])).sizes_desc[0] / 4 == 0.5


def _shuffled_path(rng, n, cut=0):
    """A path through a random order of 0..n-1, broken before position cut if cut > 0."""
    q = rng.permutation(n)
    return [(q[i], q[i + 1]) for i in range(n - 1) if i + 1 != cut]


def _shuffled_tree(rng, n):
    q = rng.permutation(n)
    return [(q[i], q[rng.integers(0, i)]) for i in range(1, n)]


SHAPE_N = 3000

# name -> (N, edges from a numpy Generator): shapes whose labels make hooking
# and pointer jumping run the longest, plus the degenerate graphs
SHAPES = {
    "path_in_order": (SHAPE_N, lambda rng: [(i, i + 1) for i in range(SHAPE_N - 1)]),
    "path_shuffled": (SHAPE_N, lambda rng: _shuffled_path(rng, SHAPE_N)),
    "two_paths_shuffled": (SHAPE_N, lambda rng: _shuffled_path(rng, SHAPE_N, cut=1000)),
    "star_centre_first": (SHAPE_N, lambda rng: [(0, i) for i in range(1, SHAPE_N)]),
    "star_centre_last": (SHAPE_N, lambda rng: [(i, SHAPE_N - 1) for i in range(SHAPE_N - 1)]),
    "tree_shuffled": (SHAPE_N, lambda rng: _shuffled_tree(rng, SHAPE_N)),
    "single_vertex": (1, lambda rng: []),
    "edgeless": (SHAPE_N, lambda rng: []),
}


class TestAgainstBfsOracle:
    # the lane names the benchmark records from kernels.numba_enabled(); the
    # flag is provenance only, so labels must match BFS whichever it reports
    @pytest.mark.parametrize("lane", ["numba", "numpy"])
    def test_random_graphs_match_bfs(self, monkeypatch, lane):
        monkeypatch.setattr(kernels, "numba_enabled", lambda: lane == "numba")
        cfg = SizeConfiguration({1: 120, 2: 40})
        for c in (0.5, 1.0, 2.0):
            params = resolve_p("sparse", c, cfg)
            for t in range(5):
                graph = sample_direct(cfg, params, rng.stream_root(11, t))
                summary = connected_components(graph)
                want = bfs_component_sizes(graph.num_super, graph.edges.tolist())
                assert summary.sizes_desc.tolist() == want
                assert summary.isolated_count == isolated_count(graph)

    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_graph_at_scale_matches_bfs(self, c):
        # above c* = 1 a giant forms; labelling takes 5 (c = 1.5) and 4 (c = 2) hook rounds
        cfg = SizeConfiguration({1: 20000})
        graph = sample_direct(cfg, resolve_p("sparse", c, cfg), rng.stream_root(5, 0))
        summary = connected_components(graph)
        assert summary.sizes_desc.tolist() == bfs_component_sizes(20000, graph.edges.tolist())
        assert summary.isolated_count == isolated_count(graph)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_adversarial_shapes_match_bfs(self, shape):
        n, make_edges = SHAPES[shape]
        edges = make_edges(np.random.default_rng(7))
        graph = graph_of(n, np.sort(np.array(edges, np.int64).reshape(-1, 2), axis=1))
        summary = connected_components(graph)
        assert summary.sizes_desc.tolist() == bfs_component_sizes(n, graph.edges.tolist())
        assert summary.isolated_count == isolated_count(graph)

    def test_consistency_connected_iff_l1_equals_n(self):
        cfg = SizeConfiguration({1: 50})
        for t in range(20):
            graph = sample_direct(cfg, resolve_p("raw", 0.08, cfg), t)
            summary = connected_components(graph)
            connected = summary.sizes_desc.shape[0] == 1
            assert connected == (summary.sizes_desc[0] == graph.num_super)
            if graph.num_super > 1 and connected:
                assert summary.isolated_count == 0
            # the size-1 components must be exactly the degree-0 nodes
            assert summary.isolated_count == isolated_count(graph)

