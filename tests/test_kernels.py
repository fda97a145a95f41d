"""The memoized counting kernel against slow oracles."""

import random

import pytest

from chaincacti.chain_model import build, parse_spec
from chaincacti.engine import BRUTE_FORCE_CAP
from chaincacti.kernels import count_independent_sets, subset_counter
from chaincacti.polynomial import UniPoly

from conftest import count_by_size_per_set, indpoly_subset_filter, random_graph


def test_trivial_graphs():
    assert count_independent_sets([]) == [1]
    assert count_independent_sets([0]) == [1, 1]
    assert count_independent_sets([0, 0]) == [1, 2, 1]
    # one edge: counts are padded out to index n even when no set that large exists
    assert count_independent_sets([2, 1]) == [1, 2, 0]


def test_pure_kernel_matches_subset_filter():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.random())
        expected = indpoly_subset_filter(g)
        got = UniPoly(count_independent_sets(g.adjacency_masks()))
        assert got == expected, f"trial {trial}"


def test_memoized_kernel_matches_per_set_oracle():
    rng = random.Random(13)
    cases = [random_graph(rng, rng.randint(0, 20), rng.random()) for _ in range(150)]
    # a chain at the brute-force cap: mixed sizes and positions, 3.5 M sets
    cases.append(build(parse_spec("7,3,5,3,6,4,7,4/1,1,2,1,2,2")))
    assert cases[-1].num_vertices == BRUTE_FORCE_CAP
    for case, g in enumerate(cases):
        masks = g.adjacency_masks()
        assert count_independent_sets(masks) == count_by_size_per_set(masks), f"case {case}"


def _trimmed(counts: list[int]) -> list[int]:
    while len(counts) > 1 and counts[-1] == 0:
        counts = counts[:-1]
    return counts


def test_subset_counter_matches_per_set_oracle_on_induced_subgraphs():
    # one counter per graph, queried on many subsets in random order, so later
    # answers are read from (and built on) a memo the earlier ones filled
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randint(1, 16), rng.random()) for _ in range(30)]
    graphs.append(build(parse_spec("6,5,6/2")))
    for case, g in enumerate(graphs):
        n = g.num_vertices
        count = subset_counter(g.adjacency_masks())
        subsets = [rng.getrandbits(n) for _ in range(40)] + [0, (1 << n) - 1]
        rng.shuffle(subsets)
        for allowed in subsets:
            sub = g.delete_vertex_ids(v for v in range(n) if not allowed >> v & 1)
            expected = _trimmed(count_by_size_per_set(sub.adjacency_masks()))
            assert count(allowed) == expected, f"case {case}, subset {allowed:#x}"


def test_kernel_rejects_oversized_input():
    with pytest.raises(ValueError, match="64"):
        count_independent_sets([0] * 65)
    with pytest.raises(ValueError, match="64"):
        subset_counter([0] * 65)
