"""Structural analysis of sampled super-graphs: components, degrees, isolation.

Components are labelled by vectorised hook-and-jump rounds in numpy
(Shiloach-Vishkin, J. Algorithms 3, 1982), so no per-edge Python loop runs.
Tests check the labelling against a BFS oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import SuperGraph


@dataclass(frozen=True)
class ComponentSummary:
    """Component sizes L1 >= L2 >= ... and the count of degree-0 nodes.

    In a simple graph isolated nodes and size-1 components coincide, so the
    count is read off the sizes; it is kept as the primary observable X.
    """

    sizes_desc: np.ndarray
    isolated_count: int

    def __post_init__(self):
        sizes = np.ascontiguousarray(self.sizes_desc, np.int64)
        sizes.setflags(write=False)
        object.__setattr__(self, "sizes_desc", sizes)


def degrees(graph: SuperGraph) -> np.ndarray:
    """Degree of every super-vertex, indexed by node."""
    return np.bincount(graph.edges.ravel(), minlength=graph.num_super)


def _component_sizes(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Sizes of the components of the graph on 0..n-1 with edges (eu, ev).

    Requires eu < ev elementwise, as every ``SuperGraph`` edge has. Each
    round hooks the larger root of every edge between two trees under the
    smallest root it meets, pointer-jumps until every vertex points at its
    root, then maps the edges to their roots and keeps those whose roots
    differ; it stops when none are left. Every parent starts as itself, so
    the first round hooks the edges as given. parent[x] <= x always holds,
    so no cycle can form. A root that still has such an edge is merged
    within two rounds, so the roots left with one at least halve every two
    rounds: O(log n) rounds.
    """
    parent = np.arange(n, dtype=np.int64)
    while eu.size:
        np.minimum.at(parent, ev, eu)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        pu, pv = parent[eu], parent[ev]
        cross = np.flatnonzero(pu != pv)
        pu, pv = pu[cross], pv[cross]
        eu, ev = np.minimum(pu, pv), np.maximum(pu, pv)
    sizes = np.bincount(parent, minlength=n)
    return sizes[sizes > 0]


def connected_components(graph: SuperGraph) -> ComponentSummary:
    """Exact component partition; the isolated nodes are the size-1 components."""
    sizes = _component_sizes(graph.num_super, graph.edges[:, 0], graph.edges[:, 1])
    sizes = np.sort(sizes)[::-1]
    return ComponentSummary(sizes_desc=sizes, isolated_count=int((sizes == 1).sum()))


def isolated_count(graph: SuperGraph) -> int:
    """Number of super-vertices of degree 0 (the observable X)."""
    return int((degrees(graph) == 0).sum())


def degree_histogram(graph: SuperGraph) -> dict[int, int]:
    """Sparse map degree k -> count Z_k; sum k*Z_k = 2|E|."""
    counts = np.bincount(degrees(graph))
    return {int(k): int(c) for k, c in enumerate(counts) if c > 0}
