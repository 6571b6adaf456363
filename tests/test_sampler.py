import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import format_edge_lines
from supergraph import kernels, rng, sampler
from supergraph.config import SizeConfiguration
from supergraph.sampler import (ModelParams, SuperGraph, edge_probability,
                                resolve_p, sample_constructive, sample_direct,
                                write_edge_list)


class TestEdgeProbability:
    def test_one_definition_shared_with_the_kernel(self):
        assert edge_probability is kernels.edge_probability

    def test_reduces_to_p(self):
        assert edge_probability(1, 1, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_exact_arithmetic(self):
        # 1 - 0.9^6 for sizes (2, 3)
        assert edge_probability(2, 3, 0.1) == pytest.approx(1 - 0.9 ** 6, abs=1e-15)
        assert edge_probability(2, 3, 0.1) == pytest.approx(0.468559, abs=5e-7)

    def test_boundaries(self):
        assert edge_probability(5, 7, 0.0) == 0.0
        assert edge_probability(5, 7, 1.0) == 1.0

    def test_tiny_p_stays_accurate(self):
        # naive 1-(1-p)^ij loses digits; expm1 keeps them
        p = 1e-9
        got = edge_probability(3, 4, p)
        assert got == pytest.approx(12 * p, rel=1e-7)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            edge_probability(0, 1, 0.5)
        with pytest.raises(ValueError):
            edge_probability(1, 1, 1.5)


class TestResolveP:
    def test_connectivity(self):
        cfg = SizeConfiguration({1: 55})
        params = resolve_p("connectivity", 0.0, cfg)
        assert params.p == pytest.approx(math.log(55) / 55, abs=1e-15)
        assert params.p == pytest.approx(0.07287, abs=5e-5)

    def test_sparse(self):
        cfg = SizeConfiguration({1: 500, 2: 250})
        assert resolve_p("sparse", 1.0, cfg).p == pytest.approx(0.001, abs=1e-15)

    def test_raw_out_of_range(self):
        with pytest.raises(ValueError):
            resolve_p("raw", 1.5, SizeConfiguration({1: 10}))

    def test_connectivity_negative_p_rejected(self):
        with pytest.raises(ValueError):
            resolve_p("connectivity", -100.0, SizeConfiguration({1: 10}))

    def test_sparse_c_above_n_rejected(self):
        with pytest.raises(ValueError):
            resolve_p("sparse", 31.0, SizeConfiguration({1: 10, 2: 10}))

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            resolve_p("dense", 0.1, SizeConfiguration({1: 10}))
        with pytest.raises(ValueError):
            ModelParams(regime="dense", c=0.1, p=0.1)


CFG_MIXED = SizeConfiguration({1: 5, 2: 3, 3: 2})


class TestBoundaries:
    @pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
    def test_p_zero_empty(self, sampler):
        graph = sampler(CFG_MIXED, resolve_p("raw", 0.0, CFG_MIXED), 1)
        assert graph.edge_count == 0

    @pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
    def test_p_one_complete(self, sampler):
        graph = sampler(CFG_MIXED, resolve_p("raw", 1.0, CFG_MIXED), 1)
        n = CFG_MIXED.num_super
        assert graph.edge_count == n * (n - 1) // 2


class TestPositionLimit:
    # a {10000: 100000} block holds 5e17 underlying vertex pairs, past the
    # 2^53 positions that float64 counts exactly, but only 5e9 super pairs
    CFG = SizeConfiguration({10000: 100000})

    def test_constructive_rejects_inexact_block(self):
        with pytest.raises(ValueError, match=r"sizes 10000 and 10000 has 5e\+17"):
            sample_constructive(self.CFG, resolve_p("raw", 1e-16, self.CFG), 0)

    def test_direct_samples_same_config(self):
        graph = sample_direct(self.CFG, resolve_p("raw", 1e-16, self.CFG), 0)
        assert graph.num_super == 100000
        assert 0 < graph.edge_count < 200


class TestDeterminism:
    @pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
    def test_same_seed_same_graph(self, sampler):
        params = resolve_p("raw", 0.2, CFG_MIXED)
        a = sampler(CFG_MIXED, params, 99)
        b = sampler(CFG_MIXED, params, 99)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.sizes, b.sizes)

    @pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
    def test_different_seed_different_graph(self, sampler):
        params = resolve_p("raw", 0.2, CFG_MIXED)
        a = sampler(CFG_MIXED, params, 1)
        b = sampler(CFG_MIXED, params, 2)
        assert not np.array_equal(a.edges, b.edges)

    def test_seed_validation(self):
        params = resolve_p("raw", 0.5, CFG_MIXED)
        for bad in (-1, 2 ** 64, 1.5, "7"):
            with pytest.raises(ValueError):
                sample_direct(CFG_MIXED, params, bad)


def _pair_frequencies(cfg, p, trials, sampler, seed=3):
    n = cfg.num_super
    params = resolve_p("raw", p, cfg)
    hits = np.zeros((n, n), dtype=np.int64)
    for t in range(trials):
        graph = sampler(cfg, params, rng.stream_root(seed, t))
        for u, v in graph.edges.tolist():
            hits[u, v] += 1
    return hits / trials


class TestDistribution:
    def test_direct_per_pair_frequency(self):
        # {1:3}, p=0.5: each pair frequency within 3 binomial sigma
        cfg = SizeConfiguration({1: 3})
        trials = 100_000
        freq = _pair_frequencies(cfg, 0.5, trials, sample_direct)
        tol = 3 * math.sqrt(0.5 * 0.5 / trials)
        for u in range(3):
            for v in range(u + 1, 3):
                assert abs(freq[u, v] - 0.5) <= tol

    def test_constructive_pair_collapse(self):
        # {1:1, 2:1}: super edge frequency = 1 - 0.9^2 = 0.19 within 3 sigma
        cfg = SizeConfiguration({1: 1, 2: 1})
        trials = 100_000
        freq = _pair_frequencies(cfg, 0.1, trials, sample_constructive)
        tol = 3 * math.sqrt(0.19 * 0.81 / trials)
        assert abs(freq[0, 1] - 0.19) <= tol

    def test_constructive_reduces_to_gnp(self):
        # all sizes 1: the collapse is exactly G(n0, p)
        cfg = SizeConfiguration({1: 4})
        trials = 20_000
        freq = _pair_frequencies(cfg, 0.3, trials, sample_constructive)
        tol = 3 * math.sqrt(0.3 * 0.7 / trials)
        for u in range(4):
            for v in range(u + 1, 4):
                assert abs(freq[u, v] - 0.3) <= tol

    @pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
    @pytest.mark.parametrize("counts", [{1: 2, 3: 1}, {2: 2, 1: 1}, {1: 4}])
    def test_samplers_match_edge_probability(self, sampler, counts):
        # the defining construction: every pair's indicator matches
        # 1-(1-p)^(ij) within 3 binomial sigma over 1e4 trials
        cfg = SizeConfiguration(counts)
        p = 0.15
        trials = 10_000
        freq = _pair_frequencies(cfg, p, trials, sampler)
        sizes = np.repeat(*cfg.size_classes()[:2])
        for u in range(cfg.num_super):
            for v in range(u + 1, cfg.num_super):
                target = edge_probability(int(sizes[u]), int(sizes[v]), p)
                tol = 3 * math.sqrt(target * (1 - target) / trials)
                assert abs(freq[u, v] - target) <= tol, (u, v, freq[u, v], target)


def _shuffled_edges(n):
    """(n, rows with u < v in shuffled order); rows may repeat."""
    row = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    return st.tuples(st.just(n), st.lists(row, max_size=60).flatmap(st.permutations))


class TestSuperGraphType:
    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            SuperGraph(sizes=np.ones(3, np.int64), edges=np.array([[1, 1]]))
        with pytest.raises(ValueError):
            SuperGraph(sizes=np.ones(3, np.int64), edges=np.array([[0, 1], [0, 1]]))
        with pytest.raises(ValueError):
            SuperGraph(sizes=np.ones(3, np.int64), edges=np.array([[0, 3]]))

    @pytest.mark.parametrize("edges,message", [
        ([[0, 1], [2, 3], [0, 1]], "duplicate"),
        ([[-1, 2]], "out of range"),
        ([[0, 1], [3, 2]], "u < v"),
    ], ids=["nonadjacent_duplicate", "negative_endpoint", "u_above_v"])
    def test_rejects_malformed_rows(self, edges, message):
        with pytest.raises(ValueError, match=message):
            SuperGraph(sizes=np.ones(4, np.int64), edges=np.array(edges))

    @pytest.mark.parametrize("sizes,edges", [
        (np.array([1.9, 2.5, 1.0]), np.array([[0, 1]])),
        (np.ones(3, np.int64), np.array([[0.7, 1.2]])),
        (np.array([True, True, True]), np.array([[0, 1]])),
        (np.ones(3, np.int64), np.array([[False, True]])),
    ], ids=["float_sizes", "float_edges", "bool_sizes", "bool_edges"])
    def test_rejects_non_integer_dtypes(self, sizes, edges):
        # a cast to int64 would truncate floats and read bools as 0/1
        with pytest.raises(ValueError, match="must hold integers"):
            SuperGraph(sizes=sizes, edges=edges)

    @pytest.mark.parametrize("convert", [
        lambda a: a.tolist(), lambda a: a.astype(np.int32), lambda a: a.astype(np.uint16),
        lambda a: a.astype(np.uint64),
    ], ids=["python_ints", "int32", "uint16", "uint64"])
    def test_any_integer_dtype_builds_the_int64_graph(self, convert):
        sizes, edges = np.array([3, 1, 2, 1], np.int64), np.array([[2, 3], [0, 1], [0, 3]], np.int64)
        want = SuperGraph(sizes=sizes, edges=edges)
        got = SuperGraph(sizes=convert(sizes), edges=convert(edges))
        assert got.sizes.dtype == got.edges.dtype == np.int64
        assert np.array_equal(got.sizes, want.sizes) and np.array_equal(got.edges, want.edges)

    @pytest.mark.parametrize("sizes,edges,name", [
        (np.ones(3, np.int64), np.array([[0, 2**63 + 1]], np.uint64), "edges"),
        (np.array([2**63], np.uint64), np.empty((0, 2), np.int64), "sizes"),
    ], ids=["edges", "sizes"])
    def test_rejects_unsigned_past_int64(self, sizes, edges, name):
        # a wrapping cast would turn these negative and fail a later check instead
        with pytest.raises(ValueError, match=rf"^{name} must lie in the int64 range"):
            SuperGraph(sizes=sizes, edges=edges)

    @pytest.mark.parametrize("sizes,edges,name", [
        (np.ones(3, np.int64), [[0, 2**63 + 1]], "edges"),
        (np.ones(3, np.int64), [[0, 2**64]], "edges"),
        (np.ones(3, np.int64), [[-2**63 - 1, 2]], "edges"),
        ([1, 2**63], [], "sizes"),
        ([1, 2**70], [], "sizes"),
        ([-2**64, 1], [], "sizes"),
    ], ids=["edges_float64", "edges_object", "edges_below", "sizes_float64", "sizes_object",
            "sizes_below"])
    def test_rejects_python_ints_past_int64(self, sizes, edges, name):
        # numpy promotes such a list to float64 or object, which is not the fault
        with pytest.raises(ValueError, match=rf"^{name} must lie in the int64 range"):
            SuperGraph(sizes=sizes, edges=edges)

    def test_python_floats_keep_the_dtype_error(self):
        for edges in ([[0.0, 1.0]], [[0, 2.0**64]], [[0, 1.5]]):
            with pytest.raises(ValueError, match="must hold integers, got dtype float64"):
                SuperGraph(sizes=np.ones(3, np.int64), edges=edges)

    def test_empty_edges_of_any_dtype(self):
        # an empty list is float64 to numpy; no value of it is cast
        for edges in ([], np.empty((0, 2))):
            assert SuperGraph(sizes=np.ones(2, np.int64), edges=edges).edge_count == 0

    def test_canonicalizes_edge_order(self):
        g = SuperGraph(sizes=np.ones(4, np.int64), edges=np.array([[2, 3], [0, 1]]))
        assert np.array_equal(g.edges, np.array([[0, 1], [2, 3]]))

    def test_sorts_reverse_order_across_several_u(self):
        edges = [[2, 3], [1, 3], [1, 2], [0, 3], [0, 2], [0, 1]]
        g = SuperGraph(sizes=np.ones(4, np.int64), edges=np.array(edges))
        assert g.edges.tolist() == edges[::-1]

    @pytest.mark.parametrize("edges", [[[2, 3], [0, 1], [1, 3]], [[0, 1], [1, 3], [2, 3]]],
                             ids=["shuffled", "sorted"])
    def test_leaves_the_callers_edges_alone(self, edges):
        edges = np.array(edges, np.int64)
        before = edges.copy()
        g = SuperGraph(sizes=np.ones(4, np.int64), edges=edges)
        assert np.array_equal(edges, before) and edges.flags.writeable
        assert not np.shares_memory(g.edges, edges)
        assert g.edges.tolist() == [[0, 1], [1, 3], [2, 3]]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_leaves_the_callers_sizes_alone(self, dtype):
        sizes = np.array([1, 2, 2, 5], dtype)
        g = SuperGraph(sizes=sizes, edges=[[0, 1]])
        assert sizes.flags.writeable and not np.shares_memory(g.sizes, sizes)
        assert not g.sizes.flags.writeable and g.sizes.tolist() == [1, 2, 2, 5]
        sizes[0] = 7  # the caller's array is still its own to write
        assert g.sizes[0] == 1

    def test_accepts_read_only_edges(self):
        edges = np.array([[2, 3], [0, 1]], np.int64)
        edges.setflags(write=False)
        g = SuperGraph(sizes=np.ones(4, np.int64), edges=edges)
        assert g.edges.tolist() == [[0, 1], [2, 3]]
        assert edges.tolist() == [[2, 3], [0, 1]]

    def test_rows_at_the_top_endpoints(self):
        # keys up to N^2 - 1 > 2^42: rows at N - 2 and N - 1 decode back exactly
        n = 2 ** 21 + 1
        rows = [(0, 1), (0, n - 2), (0, n - 1), (1, n - 1), (n // 2, n // 2 + 1),
                (n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)]
        shuffled = np.random.default_rng(5).permutation(np.array(rows, np.int64))
        g = SuperGraph(sizes=np.ones(n, np.int64), edges=shuffled)
        assert list(map(tuple, g.edges.tolist())) == sorted(rows)

    @pytest.mark.parametrize("round_draws", [None, 64], ids=["default_rounds", "rounds_of_64"])
    @pytest.mark.parametrize("sample", [sample_direct, sample_constructive])
    def test_sampled_rows_match_a_lexsort_of_the_kernel(self, monkeypatch, sample, round_draws):
        # six blocks, cut into many rounds at 64 draws: the kernel's rows come
        # out in many runs, and the graph holds them in lexicographic order
        if round_draws is not None:
            monkeypatch.setattr(kernels, "_ROUND_DRAWS", round_draws)
        kernels._plan.cache_clear()
        try:
            cfg = SizeConfiguration({1: 3000, 2: 2000, 3: 1000})
            params = resolve_p("sparse", 2.0, cfg)
            eu, ev = kernels.sample_edges(*cfg.size_classes(), params.p, 17,
                                          constructive=sample is sample_constructive)
            g = sample(cfg, params, 17)
        finally:
            kernels._plan.cache_clear()
        assert (np.diff(eu) < 0).any()  # not already sorted
        order = np.lexsort((ev, eu))
        assert np.array_equal(g.edges, np.column_stack((eu[order], ev[order])))

    @pytest.mark.parametrize("sizes,edges,message", [
        (np.ones(8, np.int64), [[0, 1, 2, 3], [4, 5, 6, 7]], r"edges .* got shape \(2, 4\)"),
        (np.ones(3, np.int64), [0, 1, 2], r"edges .* got shape \(3,\)"),
        (np.ones(3, np.int64), [0, 1], r"edges .* got shape \(2,\)"),
        (np.ones(3, np.int64), [[0, 1, 2]], r"edges .* got shape \(1, 3\)"),
        (np.ones(3, np.int64), [[[0, 1]]], r"edges .* got shape \(1, 1, 2\)"),
        (np.ones((2, 2), np.int64), [], r"sizes must be 1-D, got shape \(2, 2\)"),
        (np.int64(3), [], r"sizes must be 1-D, got shape \(\)"),
    ], ids=["transposed_edges", "odd_flat_edges", "flat_pair", "three_columns", "three_axes",
            "sizes_2d", "sizes_scalar"])
    def test_rejects_misshapen_arrays(self, sizes, edges, message):
        # a reshape would read a transposed edge list as other rows, and 2-D
        # sizes would build a graph whose num_vertices fails
        with pytest.raises(ValueError, match=f"^{message}"):
            SuperGraph(sizes=sizes, edges=np.array(edges, np.int64))

    def test_constructor_allocates_under_1_6x_its_input(self):
        # the key (8 bytes a row) and the decoded rows (16) are 1.5x the input;
        # one more gather or key temporary passes 1.6x
        m = 300_000
        u = np.arange(m, dtype=np.int64)
        rows = np.column_stack((u, u + 1 + u * 7919 % 1000))
        sizes, edges = np.ones(m + 1000, np.int64), np.random.default_rng(3).permutation(rows)
        tracemalloc.start()
        try:
            g = SuperGraph(sizes=sizes, edges=edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(g.edges, rows)
        assert peak <= 1.6 * edges.nbytes + 2 ** 20, peak / edges.nbytes

    def test_rejects_n_beyond_the_int64_key(self, monkeypatch):
        assert sampler._MAX_SUPER == math.isqrt(2 ** 63 - 1)
        # the real limit needs a 3e9-entry sizes vector; a lowered one runs the same check
        monkeypatch.setattr(sampler, "_MAX_SUPER", 3)
        SuperGraph(sizes=np.ones(3, np.int64), edges=np.array([[0, 2]]))
        with pytest.raises(ValueError, match="overflows int64"):
            SuperGraph(sizes=np.ones(4, np.int64), edges=np.array([[0, 2]]))

    @pytest.mark.parametrize("sample", [sample_direct, sample_constructive])
    def test_sampling_checks_n_before_building_arrays(self, monkeypatch, sample):
        # at p = 0 nothing but N limits the arrays, which would hold N entries
        def no_arrays(config):
            raise AssertionError("size_classes ran before the N check")

        monkeypatch.setattr(sampler, "_MAX_SUPER", 3)
        monkeypatch.setattr(SizeConfiguration, "size_classes", no_arrays)
        config = SizeConfiguration({1: 2, 2: 2})
        with pytest.raises(ValueError, match="overflows int64"):
            sample(config, resolve_p("raw", 0.0, config), 0)

    @given(st.integers(1, 300).flatmap(_shuffled_edges))
    @example((1, []))
    @example((50, []))
    def test_canonical_rows_match_python_sort(self, case):
        n, edges = case
        sizes = np.ones(n, np.int64)
        if len(set(edges)) < len(edges):
            with pytest.raises(ValueError, match="duplicate"):
                SuperGraph(sizes=sizes, edges=np.array(edges, np.int64))
            return
        g = SuperGraph(sizes=sizes, edges=np.array(edges, np.int64))
        want = np.array(sorted(set(map(tuple, edges))), np.int64).reshape(-1, 2)
        assert np.array_equal(g.edges, want)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(edges), 2)
        assert g.edges.flags.c_contiguous and not g.edges.flags.writeable

    def test_immutable_arrays(self):
        g = sample_direct(CFG_MIXED, resolve_p("raw", 0.5, CFG_MIXED), 4)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5
        with pytest.raises(ValueError):
            g.sizes[0] = 5

    def test_counts(self):
        g = sample_direct(CFG_MIXED, resolve_p("raw", 0.5, CFG_MIXED), 4)
        assert g.num_super == 10
        assert g.num_vertices == 5 + 6 + 6

    def test_num_vertices_past_int64(self):
        # 3 * 2^62 vertices: an int64 sum of the sizes would wrap negative
        cfg = SizeConfiguration({2**62: 3})
        g = sample_direct(cfg, resolve_p("sparse", 1.0, cfg), 1)
        assert g.num_vertices == cfg.num_vertices == 3 * 2**62


# 10^k - 1 and 10^k for every digit count an endpoint below _MAX_SUPER can have
DIGIT_BOUNDARIES = [b for k in range(1, 10) for b in (10 ** k - 1, 10 ** k)]
ENDPOINTS = st.one_of(st.sampled_from([0, *DIGIT_BOUNDARIES, sampler._MAX_SUPER - 1]),
                      st.integers(0, sampler._MAX_SUPER - 1))


class TestExport:
    def test_edge_list_format(self):
        cfg = SizeConfiguration({1: 2, 3: 1})
        graph = sample_direct(cfg, resolve_p("raw", 1.0, cfg), 0)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# N=3 sizes=1x2,3x1"
        assert lines[1:] == ["0 1", "0 2", "1 2"]

    @pytest.mark.parametrize("sizes,spec", [
        ([1], "1x1"), ([2, 2, 2], "2x3"), ([1, 1, 3, 7, 7, 7], "1x2,3x1,7x3"),
        ([3, 1, 2, 1, 3], "1x2,2x1,3x2"), ([2**40, 5, 2**40], "5x1,1099511627776x2"),
    ], ids=["one", "one_run", "sorted_runs", "unsorted", "unsorted_past_int32"])
    def test_header_counts_each_size(self, sizes, spec):
        # a sampled graph's sizes are non-decreasing; a caller's may come in any order
        buf = io.StringIO()
        write_edge_list(SuperGraph(sizes=sizes, edges=[]), buf)
        assert buf.getvalue() == f"# N={len(sizes)} sizes={spec}\n"

    def test_empty_graph_export(self):
        cfg = SizeConfiguration({1: 10})
        graph = sample_direct(cfg, resolve_p("raw", 0.0, cfg), 1)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        assert buf.getvalue() == "# N=10 sizes=1x10\n"

    @pytest.mark.parametrize("entry,word", [
        (7, b"007\0"),  # zero-padded groups
        (999, b"999\0"),
        (1000 + 7, b"\0\0" b"7\0"),  # leading groups
        (1000 + 42, b"\0" b"42\0"),
        (1000 + 123, b"123\0"),
        (1000, b"\0\0\0\0"),  # the group above the leading one
        (2000 + 42, b"042 "),  # " " after u
        (4000 + 5, b"005\n"),  # "\n" after v
        (2000 + 1000, b"\0\0" b"0 "),  # the group 0 as an endpoint's only group
        (4000 + 1000, b"\0\0" b"0\n"),
        (4000 + 1999, b"999\n"),
    ])
    def test_word_table_bytes(self, entry, word):
        table = sampler._WORDS.view(np.uint8).reshape(-1, 4)
        assert table.shape == (6000, 4)
        assert table[entry].tobytes() == word

    def test_formats_every_digit_boundary(self):
        rows = np.array(DIGIT_BOUNDARIES + [0, sampler._MAX_SUPER - 1], np.int64).reshape(-1, 2)
        assert sampler._format_rows(rows) == format_edge_lines(rows.tolist())

    @pytest.mark.parametrize("top", DIGIT_BOUNDARIES + [sampler._MAX_SUPER - 1])
    def test_each_digit_boundary_as_the_largest_endpoint(self, top):
        # a chunk's field width is chosen from its largest endpoint
        rows = [(0, top), (top - 1, top), (7, 12)]
        assert sampler._format_rows(np.array(rows, np.int64)) == format_edge_lines(rows)

    @settings(deadline=None)
    @given(st.lists(st.tuples(ENDPOINTS, ENDPOINTS), min_size=1, max_size=60))
    def test_formatter_matches_per_line_oracle(self, rows):
        assert sampler._format_rows(np.array(rows, np.int64)) == format_edge_lines(rows)

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_chunks_stitch_to_the_oracle(self, monkeypatch, chunk_rows):
        cfg = SizeConfiguration({1: 300, 2: 100})
        graph = sample_direct(cfg, resolve_p("sparse", 1.5, cfg), 5)
        assert graph.edge_count % 7
        monkeypatch.setattr(sampler, "_CHUNK_ROWS", chunk_rows)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        header, body = buf.getvalue().split("\n", 1)
        assert header == "# N=400 sizes=1x300,2x100"
        assert body == format_edge_lines(graph.edges.tolist())

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_chunks_of_different_widths_stitch(self, monkeypatch, chunk_rows):
        # Chunk j has u = j; its endpoints end at 999, 9999 or 999,999, or
        # start at 1000, 10^4 or 10^6, so neighbouring chunks format with one,
        # three, one, two, two, three, two and two 3-digit groups, across
        # 10^3, 10^4 and 10^6. The last row makes a partial chunk when
        # chunk_rows = 3.
        n = 1_000_010
        last = 1 - chunk_rows
        firsts = [999 + last, 10 ** 6, 999 + last, 1000, 999_999 + last, 10 ** 6,
                  9999 + last, 10_000]
        rows = [(j, v) for j, first in enumerate(firsts)
                for v in range(first, first + chunk_rows)]
        rows.append((n - 2, n - 1))
        graph = SuperGraph(sizes=np.ones(n, np.int64), edges=np.array(rows))
        assert graph.edges.tolist() == [list(r) for r in rows]
        monkeypatch.setattr(sampler, "_CHUNK_ROWS", chunk_rows)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        assert buf.getvalue() == f"# N={n} sizes=1x{n}\n" + format_edge_lines(rows)
