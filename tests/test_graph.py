import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import bfs_component_sizes
from supergraph import kernels, rng
from supergraph.config import SizeConfiguration
from supergraph.graph import (_component_sizes, connected_components, degree_histogram,
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


def _path_in_order(rng, n):
    return [(i, i + 1) for i in range(n - 1)]


def _star_centre_last(rng, n):
    return [(i, n - 1) for i in range(n - 1)]


SHAPE_N = 3000
BIG_SHAPE_N = 40_000

# name -> (N, edges from a numpy Generator and N): shapes whose labels make hooking
# and pointer jumping run the longest, plus the degenerate graphs; the *_40k
# shapes span several of the pieces that labelling sweeps
SHAPES = {
    "path_in_order": (SHAPE_N, _path_in_order),
    "path_shuffled": (SHAPE_N, _shuffled_path),
    "two_paths_shuffled": (SHAPE_N, lambda rng, n: _shuffled_path(rng, n, cut=1000)),
    "star_centre_first": (SHAPE_N, lambda rng, n: [(0, i) for i in range(1, n)]),
    "star_centre_last": (SHAPE_N, _star_centre_last),
    "tree_shuffled": (SHAPE_N, _shuffled_tree),
    "single_vertex": (1, lambda rng, n: []),
    "edgeless": (SHAPE_N, lambda rng, n: []),
    "path_in_order_40k": (BIG_SHAPE_N, _path_in_order),
    "path_shuffled_40k": (BIG_SHAPE_N, _shuffled_path),
    "star_centre_last_40k": (BIG_SHAPE_N, _star_centre_last),
    "tree_shuffled_40k": (BIG_SHAPE_N, _shuffled_tree),
}


def _read_only(a):
    a = np.array(a, np.int64)
    a.setflags(write=False)
    return a


def _labelled_sizes(n, edges):
    """_component_sizes on read-only edge columns, largest first: a write into them raises."""
    edges = np.array(edges, np.int64).reshape(-1, 2)
    sizes = _component_sizes(n, _read_only(edges[:, 0]), _read_only(edges[:, 1]))
    return sorted(sizes.tolist(), reverse=True)


@st.composite
def _edge_sets(draw):
    """(n, distinct rows (u, v) with 0 <= u < v < n, in random order), n <= 300."""
    n = draw(st.integers(1, 300))
    if n == 1:
        return n, []
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    rows = draw(st.lists(ends.map(sorted).map(tuple), unique=True, max_size=2 * n))
    return n, draw(st.permutations(rows))


class _CountedMinimum:
    """np.minimum that counts its .at calls: one per hook round of the labelling."""

    def __init__(self):
        self.at_calls = 0

    def __call__(self, *args):
        return np.minimum(*args)

    def at(self, *args):
        self.at_calls += 1
        return np.minimum.at(*args)


def _hook_rounds(monkeypatch, n, edges):
    """Hook rounds _component_sizes takes on the edges; it sees a numpy whose minimum counts."""
    counted = _CountedMinimum()
    numpy = types.ModuleType("numpy")
    vars(numpy).update(vars(np), minimum=counted)
    monkeypatch.setattr("supergraph.graph.np", numpy)
    assert _labelled_sizes(n, edges) == [n]
    return counted.at_calls


# piece sizes the labelling's root sweep is patched to, so that every graph spans
# many pieces; None keeps the default, under the test's plain id
PIECES = (None, 1, 3, 7, 64)


def _at_pieces(values, default_only=()):
    """Params (value, piece) for each value at every piece of PIECES, the values in
    default_only at the default piece alone."""
    return [pytest.param(v, p, id=v if p is None else f"{v}-{p}")
            for p in PIECES for v in values if p is None or v not in default_only]


class TestAgainstBfsOracle:
    @pytest.fixture(autouse=True)
    def piece(self, request, monkeypatch):
        """Labelling sweeps pieces of this many entries where a test is parametrized over it."""
        size = getattr(request, "param", None)
        if size is not None:
            monkeypatch.setattr("supergraph.graph._PIECE", size)

    # the lane names the benchmark records from kernels.numba_enabled(); the
    # flag is provenance only, so labels must match BFS whichever it reports
    @pytest.mark.parametrize("lane, piece", _at_pieces(["numba", "numpy"]), indirect=["piece"])
    def test_random_graphs_match_bfs(self, monkeypatch, lane):
        monkeypatch.setattr(kernels, "numba_enabled", lambda: lane == "numba")
        cfg = SizeConfiguration({1: 120, 2: 40})
        for c in (0.5, 1.0, 2.0):
            params = resolve_p("sparse", c, cfg)
            for t in range(5):
                root = rng.stream_root(11, t)
                graph = sample_direct(cfg, params, root)
                summary = connected_components(graph)
                want = bfs_component_sizes(graph.num_super, graph.edges.tolist())
                assert summary.sizes_desc.tolist() == want
                assert summary.isolated_count == isolated_count(graph)
                # the kernel's own arrays, in the order it returns them, as trials pass them
                eu, ev = kernels.sample_edges(*cfg.size_classes(), params.p, root)
                assert _labelled_sizes(graph.num_super, np.column_stack((eu, ev))) == want

    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_graph_at_scale_matches_bfs(self, c):
        # above c* = 1 a giant forms; labelling takes 5 (c = 1.5) and 4 (c = 2) hook rounds
        cfg = SizeConfiguration({1: 20000})
        graph = sample_direct(cfg, resolve_p("sparse", c, cfg), rng.stream_root(5, 0))
        summary = connected_components(graph)
        assert summary.sizes_desc.tolist() == bfs_component_sizes(20000, graph.edges.tolist())
        assert summary.isolated_count == isolated_count(graph)

    @pytest.mark.parametrize(
        "shape, piece",
        _at_pieces(sorted(SHAPES), default_only=[k for k, (n, _) in SHAPES.items() if n > SHAPE_N]),
        indirect=["piece"])
    def test_adversarial_shapes_match_bfs(self, shape):
        n, make_edges = SHAPES[shape]
        edges = np.sort(np.array(make_edges(np.random.default_rng(7), n), np.int64).reshape(-1, 2),
                        axis=1)
        want = bfs_component_sizes(n, edges.tolist())
        graph = graph_of(n, edges)
        summary = connected_components(graph)
        assert summary.sizes_desc.tolist() == want
        assert summary.isolated_count == isolated_count(graph)
        # the rows as made, before SuperGraph puts them in canonical order
        assert _labelled_sizes(n, edges) == want

    @pytest.mark.parametrize("piece", PIECES, indirect=True)
    def test_one_round_labels_a_path_in_order(self, monkeypatch):
        # the first hook points each vertex at the one before it, a chain of depth N
        # over three default pieces; the sweep must leave every vertex at the root, 0
        assert _hook_rounds(monkeypatch, BIG_SHAPE_N, _path_in_order(None, BIG_SHAPE_N)) == 1

    # the piece fixture is autouse, not an argument, so hypothesis does not flag it;
    # the patched size holds for every example, as it should
    @pytest.mark.parametrize("piece", PIECES, indirect=True)
    @given(_edge_sets())
    @example((1, []))
    @example((300, [(u, u + 1) for u in range(299)][::-1]))
    def test_random_edge_sets_match_bfs(self, case):
        n, edges = case
        assert _labelled_sizes(n, edges) == bfs_component_sizes(n, edges)

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
