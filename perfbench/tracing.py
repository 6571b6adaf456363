"""Spans around each layer's public calls, and the replay that records them.

The replay redoes a round's operations by calling the layers one by one
with the same per-trial seeds the Monte Carlo runner uses
(``rng.stream_root(seed, t)``): ``kernels.sample_edges`` ->
``SuperGraph(...)`` -> ``connected_components`` -> the degree reductions ->
the theory calls -> ``write_edge_list``. Spans live in memory and are
written out when the run ends. A ``NullTracer`` runs the same replay with
no spans, which gives the tracing overhead.
"""

from __future__ import annotations

import io
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from supergraph import kernels, rng, theory
from supergraph.config import empirical_profile
from supergraph.graph import connected_components, degree_histogram, isolated_count
from supergraph.montecarlo import TAIL_LUMP
from supergraph.sampler import SuperGraph, resolve_p, write_edge_list

# span names that are layer metrics: "<layer>.<what>" reported as "<name>_s"
LAYER_SPANS = ("kernels.sample_edges", "sampler.canon", "graph.components", "graph.degrees",
               "theory.moments", "theory.solve_giant", "theory.degree_law", "cli.render",
               "cli.write_edge_list")
# exact counts, the same in every round of a run
COUNTS = ("kernels.edges", "kernels.blocks", "sampler.edge_bytes",
          "theory.solver_iterations", "theory.solver_failures", "cli.output_bytes")


class Tracer:
    """Records (id, parent, name, op, request, start_ns, end_ns) spans and counts."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, request: str = ""):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, op, request, start, end)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def self_seconds(self) -> dict[tuple[str, str], float]:
        """Self time per (op, span name): duration minus that of child spans."""
        child = defaultdict(int)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, op, _, start, end in self.spans:
            out[(op, name)] += (end - start - child[sid]) * 1e-9
        return dict(out)


class NullTracer:
    """The replay's tracer when nothing is recorded."""

    def span(self, name: str, op: str, request: str = ""):
        return nullcontext()

    def count(self, name: str, value: int) -> None:
        pass

    def maximum(self, name: str, value: int) -> None:
        pass


def _sample(tr, config, p: float, seed: int, constructive: bool, op: str, request: str):
    """kernels.sample_edges then the SuperGraph constructor, as sampler._build does."""
    class_sizes, class_counts, class_offsets = config.size_classes()
    with tr.span("kernels.sample_edges", op, request):
        eu, ev = kernels.sample_edges(class_sizes, class_counts, class_offsets, p, seed,
                                      constructive=constructive)
    k = class_sizes.shape[0]
    tr.count("kernels.edges", eu.shape[0])
    tr.count("kernels.blocks", k * (k + 1) // 2)
    sizes = np.repeat(class_sizes, class_counts)
    edges = np.column_stack((eu, ev))
    tr.maximum("sampler.edge_bytes", edges.nbytes)
    with tr.span("sampler.canon", op, request):
        return SuperGraph(sizes=sizes, edges=edges)


def _degree_law(tr, profile, c: float, op: str) -> None:
    """The calls run_degree_experiment makes into theory for its pmf and tails."""
    with tr.span("theory.degree_law", op):
        cutoff = theory.degree_pmf_cutoff(profile, c, TAIL_LUMP)
        for k in range(cutoff):
            theory.mixed_poisson_pmf(profile, c, k)
        for k in range(cutoff + 1):
            theory.mixed_poisson_tail(profile, c, k)


def replay_experiment(tr, op) -> dict:
    """Replay every trial of an ExperimentOp; returns per-trial rows and trial 0."""
    plan = op.plan
    params = plan.params()
    config = plan.config
    rows = {"connected": [], "isolated": [], "L1": [], "L2": []}
    first = None
    for t in range(plan.trials):
        request = f"{op.name}/{t}"
        with tr.span("trial", op.name, request):
            graph = _sample(tr, config, params.p, rng.stream_root(plan.seed, t), False,
                            op.name, request)
            with tr.span("graph.components", op.name, request):
                sizes = connected_components(graph).sizes_desc
            with tr.span("graph.degrees", op.name, request):
                rows["isolated"].append(isolated_count(graph))
                if plan.experiment == "degree":
                    degree_histogram(graph)
        rows["connected"].append(int(sizes.shape[0] == 1))
        rows["L1"].append(int(sizes[0]))
        rows["L2"].append(int(sizes[1]) if sizes.shape[0] > 1 else 0)
        if t == 0:
            first = graph

    profile = empirical_profile(config)
    c_sparse = params.p * config.num_vertices
    if plan.experiment == "connectivity":
        with tr.span("theory.moments", op.name):
            if plan.trials >= 500:  # montecarlo's isolated-count guard
                theory.expected_isolated(config, params.p)
            theory.expected_isolated(config, params.p)
            theory.variance_isolated(config, params.p)
    elif plan.experiment == "giant":
        with tr.span("theory.solve_giant", op.name):
            solution = theory.solve_giant_fraction(profile, c_sparse)
        tr.count("theory.solver_iterations", solution.iterations)
    else:
        _degree_law(tr, profile, c_sparse, op.name)
    return {"rows": rows, "first": first}


def replay_predict(tr, op) -> dict:
    """Replay ``predict`` in the CLI's call order; a solver failure ends it."""
    config = op.config
    params = resolve_p("sparse", op.c, config)
    profile = empirical_profile(config)
    c_sparse = params.p * config.num_vertices
    try:
        with tr.span("theory.solve_giant", op.name):
            solution = theory.solve_giant_fraction(profile, c_sparse)
    except RuntimeError as exc:
        tr.count("theory.solver_failures", 1)
        return {"rho": None, "error": str(exc)}
    tr.count("theory.solver_iterations", solution.iterations)
    with tr.span("theory.degree_law", op.name):
        cutoff = theory.degree_pmf_cutoff(profile, c_sparse)
    with tr.span("theory.moments", op.name):
        theory.expected_isolated(config, params.p)
        theory.variance_isolated(config, params.p)
    with tr.span("theory.degree_law", op.name):
        for k in range(cutoff):
            theory.mixed_poisson_pmf(profile, c_sparse, k)
    return {"rho": solution.rho, "error": ""}


def replay_generate(tr, op) -> dict:
    """Replay ``generate``: sample, canonicalise and format the edge list."""
    params = resolve_p("sparse", op.c, op.config)
    graph = _sample(tr, op.config, params.p, op.seed, op.sampler == "constructive",
                    op.name, op.name)
    buf = io.StringIO()
    with tr.span("cli.write_edge_list", op.name, op.name):
        write_edge_list(graph, buf)
    text = buf.getvalue().encode()
    tr.count("cli.output_bytes", len(text))
    return {"text": text}


REPLAY = {"experiment": replay_experiment, "predict": replay_predict,
          "generate": replay_generate}


def layer_seconds(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer span, summed over ops."""
    out = {name: 0.0 for name in LAYER_SPANS}
    for (_, name), seconds in tracer.self_seconds().items():
        if name in out:
            out[name] += seconds
    return out


def op_layer_seconds(tracer: Tracer, op_name: str) -> float:
    """Seconds the replay of one op spent inside layer spans."""
    return math.fsum(s for (op, name), s in tracer.self_seconds().items()
                     if op == op_name and name in LAYER_SPANS)
