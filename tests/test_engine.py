"""The three engines against each other and against the subset-filter oracle."""

import inspect
import itertools
from decimal import Decimal
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaincacti.engine as engine
from chaincacti.chain_model import (
    ChainSpec,
    SpecError,
    VertexLabel,
    build,
    enumerate_specs,
    parse_spec,
    reversed_spec,
)
from chaincacti.closed_forms import cycle_poly, meta_recurrence_coeffs, path_poly
from chaincacti.engine import (
    BRUTE_FORCE_CAP,
    VertexCapError,
    _prefix_state,
    _step_matrix,
    indpoly_bruteforce,
    indpoly_chain,
    indpoly_chain_minus_last_vertex,
    indpoly_recursive,
    refuse_past,
    transfer_state,
    walk_chains,
)
from chaincacti.polynomial import UniPoly, row_times

from conftest import graph_from_edges, indpoly_subset_filter


def test_bruteforce_matches_subset_filter_on_small_chains():
    for sizes in [(3,), (6,), (3, 3), (6, 5), (4, 3, 5)]:
        for spec in enumerate_specs(sizes):
            g = build(spec)
            assert indpoly_bruteforce(g) == indpoly_subset_filter(g)


def test_bruteforce_frozen_path_and_cycle_values():
    assert indpoly_bruteforce(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])) == UniPoly(
        [1, 4, 3]
    )
    assert indpoly_bruteforce(
        graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    ) == UniPoly([1, 5, 5])


def test_bruteforce_cap():
    g = build(parse_spec("8^5/1,1,1"))
    assert g.num_vertices == 36
    with pytest.raises(VertexCapError):
        indpoly_bruteforce(g)
    assert BRUTE_FORCE_CAP == 32


def test_refuse_past_is_the_one_cap_rule():
    refuse_past(7, 7, "job of", "units")
    with pytest.raises(VertexCapError, match="^job of 8 units exceeds the cap of 7 units$"):
        refuse_past(8, 7, "job of", "units")
    with pytest.raises(VertexCapError, match="^job of a 31-digit number of units exceeds"):
        refuse_past(10**30, 7, "job of", "units")
    with pytest.raises(VertexCapError, match=r"^job of more than 10\^1,000,000 units exceeds"):
        refuse_past(Decimal("1e1000000"), 7, "job of", "units")


def test_bruteforce_and_recursion_refuse_past_their_caps(monkeypatch):
    g = build(parse_spec("6^5/2^3"))
    assert g.num_vertices == 26
    monkeypatch.setattr(engine, "BRUTE_FORCE_CAP", 25)
    with pytest.raises(VertexCapError, match="^brute force on a graph of 26 vertices exceeds the cap of 25 vertices$"):
        indpoly_bruteforce(g)
    monkeypatch.setattr(engine, "MEMO_VERTEX_CAP", 26)
    assert indpoly_recursive(g) == indpoly_chain(parse_spec("6^5/2^3"))
    monkeypatch.setattr(engine, "MEMO_VERTEX_CAP", 25)
    with pytest.raises(VertexCapError, match="^recursion on a graph of 26 vertices exceeds the cap of 25"):
        indpoly_recursive(g)


def test_recursive_handles_disconnected_graphs():
    # two components: a triangle and a single edge
    g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    expected = UniPoly([1, 3]) * UniPoly([1, 2])
    assert indpoly_recursive(g) == expected
    assert indpoly_bruteforce(g) == expected


def test_recursive_on_empty_and_single_vertex():
    assert indpoly_recursive(graph_from_edges(0, [])) == UniPoly([1])
    assert indpoly_recursive(graph_from_edges(1, [])) == UniPoly([1, 1])


def test_recursive_needs_no_call_depth():
    # 40 triangles in a row: the pivot tree is deeper than the frames allowed
    spec = ChainSpec((3,) * 40, (1,) * 38)
    g = build(spec)
    expected = indpoly_chain(spec)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        got = indpoly_recursive(g)
    finally:
        sys.setrecursionlimit(old)
    assert got == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_recursive_matches_bruteforce_on_random_graphs(data):
    n = data.draw(st.integers(min_value=0, max_value=11))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    g = graph_from_edges(n, edges)
    assert indpoly_recursive(g) == indpoly_bruteforce(g)


def test_chain_engine_on_single_cycles():
    # 127 and 128 vertices sit on either side of the scan/tree boundary
    for h in (*range(3, 11), 127, 128, 300):
        assert indpoly_chain(ChainSpec((h,), ())) == cycle_poly(h)


def test_chain_engine_frozen_values():
    assert indpoly_chain(parse_spec("6/")) == UniPoly([1, 6, 9, 2])
    assert indpoly_chain(parse_spec("6,6/")) == UniPoly([1, 11, 43, 73, 52, 13, 1])
    assert indpoly_chain(parse_spec("6,6,6/3")).eval_at_one() == 2066


def test_chain_engine_requires_a_cycle():
    with pytest.raises(SpecError):
        indpoly_chain(ChainSpec((), ()))


@pytest.mark.parametrize(
    "text",
    ["6,6/", "6,6,6/2", "5,6,7,6/2,3", "3,8,4/2", "7,7,7/3", "4,4,4,4/2,2"],
)
def test_chain_engine_matches_bruteforce(text):
    spec = parse_spec(text)
    assert indpoly_chain(spec) == indpoly_bruteforce(build(spec))


def test_deletion_polynomials_frozen_psi_values():
    spec = parse_spec("6,6/")
    assert indpoly_chain_minus_last_vertex(spec, 1).eval_at_one() == 129
    assert indpoly_chain_minus_last_vertex(spec, 2).eval_at_one() == 145
    assert indpoly_chain_minus_last_vertex(spec, 3).eval_at_one() == 137


@pytest.mark.parametrize("text", ["6,6/", "6,6,6/2", "5,7/", "4,3,6/1"])
def test_deletion_polynomials_match_bruteforce(text):
    spec = parse_spec(text)
    g = build(spec)
    n, h = spec.length, spec.cycle_sizes[-1]
    for k in range(1, h):
        expected = indpoly_bruteforce(g.delete_vertices([VertexLabel(n, k)]))
        assert indpoly_chain_minus_last_vertex(spec, k) == expected


def test_deletion_mirror_symmetry():
    spec = parse_spec("6,8/")
    for k in range(1, 8):
        assert indpoly_chain_minus_last_vertex(spec, k) == indpoly_chain_minus_last_vertex(
            spec, 8 - k
        )


def test_deletion_argument_errors():
    spec = parse_spec("6,6/")
    for k in (0, 6, -1):
        with pytest.raises(SpecError):
            indpoly_chain_minus_last_vertex(spec, k)
    with pytest.raises(SpecError):
        indpoly_chain_minus_last_vertex(parse_spec("6/"), 1)


@pytest.mark.parametrize("text", ["6,6/", "6,6,6/2", "5,6,7,6/2,3"])
def test_transfer_state_counts_prefix_sets_by_exit_occupancy(text):
    spec = parse_spec(text)
    for j in range(1, spec.length):
        state = transfer_state(spec, j)
        head = ChainSpec(spec.cycle_sizes[:j], spec.positions[: max(j - 2, 0)])
        prefix = build(head)
        exit_pos = 1 if j == 1 else spec.positions[j - 2]
        exit_label = VertexLabel(j, exit_pos)
        minus_exit = indpoly_bruteforce(prefix.delete_vertices([exit_label]))
        exit_id = prefix.vertex_of(exit_label)
        hood = prefix.adjacency_masks()[exit_id] | 1 << exit_id
        minus_hood = indpoly_bruteforce(
            prefix.delete_vertex_ids(v for v in range(prefix.num_vertices) if hood >> v & 1)
        )
        assert state.p == minus_exit
        assert state.q == minus_hood.shift(1)
        assert state.q.coefficient(0) == 0
        assert state.p + state.q == indpoly_bruteforce(prefix)


def test_step_matrix_trace_and_determinant_are_the_recurrence_coefficients():
    # Cayley-Hamilton: along a uniform chain s_n = tr(M) s_{n-1} - det(M) s_{n-2},
    # so M(h, 1) must reproduce the ortho and M(h, 2) the meta recurrence.
    for h in range(3, 30):
        pp, pq, qp, qq = _step_matrix(h, 1)
        side = path_poly(h - 3)
        assert pp + qq == path_poly(h - 2)
        assert pq * qp - pp * qq == (side * side).shift(1)
        if h >= 4:
            a, b = meta_recurrence_coeffs(h)
            pp, pq, qp, qq = _step_matrix(h, 2)
            assert pp + qq == a
            assert pp * qq - pq * qp == b.shift(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_matches_the_per_chain_scan_and_the_recursive_engine(n):
    # Slow oracles for the walk's fast path: the per-spec scan for the chain,
    # the full last step's p half for each deletion and, on small graphs,
    # the pivot recursion on the chain with vertex (n, k) removed.
    for sizes in itertools.product(range(3, 9), repeat=n):
        specs = list(enumerate_specs(sizes))
        leaves = list(walk_chains(sizes))
        assert [positions for positions, _, _ in leaves] == [s.positions for s in specs]
        h = sizes[-1]
        for spec, (_, poly, deletions) in zip(specs, leaves):
            assert poly == indpoly_chain(spec)
            assert len(deletions) == h // 2
            state = _prefix_state(spec, n - 1)
            for k, deleted in enumerate(deletions, start=1):
                assert deleted == row_times(state, _step_matrix(h, k))[0]
            if spec.num_vertices <= 20:
                g = build(spec)
                for k, deleted in enumerate(deletions, start=1):
                    assert deleted == indpoly_recursive(g.delete_vertices([VertexLabel(n, k)]))
        by_positions = {positions: leaf for positions, *leaf in leaves}
        deduped = list(walk_chains(sizes, dedupe_reversal=True))
        kept = [s.positions for s in enumerate_specs(sizes, dedupe_reversal=True)]
        assert [positions for positions, _, _ in deduped] == kept
        for positions, *leaf in deduped:
            assert leaf == by_positions[positions]


def test_walk_subtrees_concatenate_to_the_whole_walk():
    sizes = (6, 8, 5, 6)
    whole = list(walk_chains(sizes))
    parts = [leaf for k in range(1, 5) for leaf in walk_chains(sizes, first=k)]
    assert parts == whole
    for bad in (0, 5):
        with pytest.raises(SpecError):
            list(walk_chains(sizes, first=bad))
    with pytest.raises(SpecError):
        list(walk_chains((6, 6), first=1))
    with pytest.raises(SpecError, match="cycle size 2 < 3"):
        list(walk_chains((6, 2, 6)))


def test_transfer_state_bounds():
    spec = parse_spec("6,6,6/2")
    with pytest.raises(SpecError):
        transfer_state(spec, 0)
    with pytest.raises(SpecError):
        transfer_state(spec, 3)


def test_reversal_invariance_spot_checks():
    for text in ["5,6,7,6/2,3", "3,8,4/2", "6,6,6,6/1,3"]:
        spec = parse_spec(text)
        assert indpoly_chain(spec) == indpoly_chain(reversed_spec(spec))


def test_vertex_deletion_identity_on_random_chains():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 3)
        sizes = tuple(rng.randint(3, 6) for _ in range(n))
        positions = tuple(rng.randint(1, sizes[j] // 2) for j in range(1, n - 1))
        g = build(ChainSpec(sizes, positions))
        whole = indpoly_bruteforce(g)
        for v in range(g.num_vertices):
            without = indpoly_bruteforce(g.delete_vertex_ids([v]))
            hood = g.adjacency_masks()[v] | 1 << v
            without_hood = indpoly_bruteforce(
                g.delete_vertex_ids(i for i in range(g.num_vertices) if hood >> i & 1)
            )
            assert whole == without + without_hood.shift(1)
            assert without.eval_at_one() < whole.eval_at_one()


def test_indpoly_check_survives_optimized_mode():
    # python -O strips assert statements; the boundary check must still fire
    code = (
        "from chaincacti.engine import _check_indpoly\n"
        "from chaincacti.polynomial import UniPoly\n"
        "_check_indpoly(UniPoly([2, -1]), 5)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "AssertionError: empty set must be counted once" in proc.stderr


def _sequential_chain(spec: ChainSpec) -> tuple[UniPoly, UniPoly]:
    # The transfer scan one step per cycle: the state (p, q) before the last
    # cycle, then the chain's polynomial and i(A - v_2) (or v_1 when h_n = 3).
    p, q = UniPoly([1]), UniPoly([0, 1])
    for h, k in zip(spec.cycle_sizes[:-1], (1, *spec.positions)):
        pp, pq, qp, qq = _step_matrix(h, k)
        p, q = p * pp + q * qp, p * pq + q * qq
    pp, pq, qp, qq = _step_matrix(spec.cycle_sizes[-1], 1)
    chain = p * (pp + pq) + q * (qp + qq)
    pp, _, qp, _ = _step_matrix(spec.cycle_sizes[-1], min(2, spec.cycle_sizes[-1] - 1))
    return chain, p * pp + q * qp


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=300))
def test_chain_product_tree_equals_a_sequential_scan(seed, n):
    # Mixed sizes and positions, so that no two halves of the tree commute;
    # about 1,500 vertices at most, so that the scan stays quick.
    rng = random.Random(seed)
    h_max = min(40, max(3, 1500 // n))
    sizes = [rng.randint(3, h_max) for _ in range(n)]
    if rng.random() < 0.5:
        # runs of equal cycles, so the tree also powers and splits runs
        sizes = [sizes[i - i % 7] for i in range(n)]
    positions = [rng.randint(1, h - 1) for h in sizes[1:-1]]
    if rng.random() < 0.5:
        positions = [min(2, h // 2) for h in sizes[1:-1]]
    spec = ChainSpec(sizes, positions)
    chain, deleted = _sequential_chain(spec)
    assert indpoly_chain(spec) == chain
    if n >= 2:
        k = min(2, sizes[-1] - 1)
        assert indpoly_chain_minus_last_vertex(spec, k) == deleted
