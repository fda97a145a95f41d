"""Shared test helpers: ad-hoc graphs and independent counting oracles."""

from __future__ import annotations

import random

from chaincacti.chain_model import LabeledGraph, VertexLabel
from chaincacti.polynomial import UniPoly


def graph_from_edges(n: int, edges) -> LabeledGraph:
    labels = {VertexLabel(1, i + 1): i for i in range(n)}
    return LabeledGraph(n, edges, labels)


def path_graph(n: int) -> LabeledGraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> LabeledGraph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng: random.Random, n: int, p: float) -> LabeledGraph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def indpoly_subset_filter(g: LabeledGraph) -> UniPoly:
    """Count independent sets by filtering all 2^V subsets.

    Deliberately shares no code with the counting kernel or engines; keep
    graphs at 14 vertices or fewer.
    """
    n = g.num_vertices
    assert n <= 16, "subset filter oracle is exponential"
    counts = [0] * (n + 1)
    for m in range(1 << n):
        if all(not (m >> u & 1 and m >> v & 1) for u, v in g.edges):
            counts[m.bit_count()] += 1
    return UniPoly(counts)


def count_by_size_per_set(masks: list[int]) -> list[int]:
    """Count independent sets by size, visiting every set once.

    Backtracking over the lowest remaining vertex with no memo table: each
    pushed state is one distinct independent set, so the running time is
    proportional to the number of independent sets.  The slow oracle for
    the memoized counting kernel; same contract, counts padded to len(masks).
    """
    n = len(masks)
    counts = [0] * (n + 1)
    stack = [((1 << n) - 1, 0)]
    while stack:
        allowed, size = stack.pop()
        while allowed:
            low = allowed & -allowed
            v = low.bit_length() - 1
            stack.append((allowed & ~(masks[v] | low), size + 1))
            allowed ^= low
        counts[size] += 1
    return counts
