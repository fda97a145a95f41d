"""Spec parsing, canonicalization, graph construction, and enumeration."""

import copy
import itertools
import pickle

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincacti.chain_model import (
    ChainSpec,
    SpecError,
    VertexLabel,
    build,
    count_specs,
    enumerate_specs,
    parse_spec,
    reversed_spec,
)


def test_parse_basic_forms():
    assert parse_spec("6,6,6,6/1,2") == ChainSpec((6, 6, 6, 6), (1, 2))
    assert parse_spec("6^4/1,2") == ChainSpec((6, 6, 6, 6), (1, 2))
    assert parse_spec("6,6") == ChainSpec((6, 6), ())
    assert parse_spec("6,6/") == ChainSpec((6, 6), ())
    assert parse_spec("6/") == ChainSpec((6,), ())
    assert parse_spec(" 5 , 7 / ") == ChainSpec((5, 7), ())


def test_parse_canonicalizes_positions_past_the_midpoint():
    assert parse_spec("6,6,6,6/5,2") == ChainSpec((6, 6, 6, 6), (1, 2))
    assert parse_spec("7,7,7/4") == ChainSpec((7, 7, 7), (3,))
    # position 2 on a triangle is the mirror of position 1
    assert parse_spec("3,3,3/2") == ChainSpec((3, 3, 3), (1,))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "6,6,6",  # n >= 3 without a slash
        "2,6/",  # cycle too small
        "6,6,6/0",
        "6,6,6/6",
        "6,6/1",  # unexpected position
        "6,6,6,6/1",  # missing position
        "a,6/",
        "6,6/x",
        "6/1/2",
        "6^0/",
    ],
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(SpecError):
        parse_spec(text)


def test_construction_reports_offending_cycle():
    with pytest.raises(SpecError, match="cycle size 2 < 3 at cycle 2"):
        ChainSpec((6, 2), ())
    with pytest.raises(SpecError, match="out of range"):
        ChainSpec((6, 6, 6), (7,))
    with pytest.raises(SpecError, match="expected 1 position"):
        ChainSpec((6, 6, 6), ())


def test_construction_canonicalizes_positions():
    assert ChainSpec((6, 6, 6), (4,)) == ChainSpec((6, 6, 6), (2,))
    assert ChainSpec([6, 6, 6], [4]).positions == (2,)


def test_parse_position_shorthand():
    assert parse_spec("6^400/2^398") == ChainSpec((6,) * 400, (2,) * 398)
    assert parse_spec("40^80/ 1^78 ") == ChainSpec((40,) * 80, (1,) * 78)
    assert parse_spec("6^3/5^1") == ChainSpec((6, 6, 6), (1,))
    # the text form stays the comma list
    assert parse_spec("6^4/2^2").to_text() == "6,6,6,6/2,2"
    for bad in ("6^4/2^0", "6^4/2^3", "6^4/x^2", "6^4/2^y", "6^4/2^1,2"):
        with pytest.raises(SpecError):
            parse_spec(bad)


@given(
    st.lists(st.integers(min_value=3, max_value=12), min_size=1, max_size=8).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            st.tuples(*[st.integers(min_value=1, max_value=h - 1) for h in sizes[1:-1]]),
        )
    )
)
def test_text_round_trips_through_the_parser(sizes_and_positions):
    spec = ChainSpec(*sizes_and_positions)
    assert parse_spec(spec.to_text()) == spec


def test_text_round_trip():
    for text in ["6/", "6,6/", "6,6,6/3", "5,6,7,6/2,3"]:
        spec = parse_spec(text)
        assert parse_spec(spec.to_text()) == spec
    assert parse_spec("6,6,6/3").to_text() == "6,6,6/3"
    assert parse_spec("6,6/").to_text() == "6,6"


def test_spec_is_an_immutable_value():
    spec = ChainSpec((6, 6, 6), (4,))
    with pytest.raises(AttributeError):
        spec.positions = (1,)
    with pytest.raises(AttributeError):
        spec.cycle_sizes = (5, 5, 5)
    assert spec.positions == (2,)
    same = parse_spec("6,6,6/2")
    assert spec == same and hash(spec) == hash(same)
    assert spec != ChainSpec((6, 6, 6), (1,))
    assert spec != ((6, 6, 6), (2,))
    assert len({spec, same, reversed_spec(same)}) == 1
    assert repr(spec) == "ChainSpec(cycle_sizes=(6, 6, 6), positions=(2,))"
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert twin == spec and hash(twin) == hash(spec)
        assert type(twin) is ChainSpec and twin.positions == (2,)


def test_build_counts_vertices_and_edges():
    for text in ["6/", "6,6/", "6,6,6/2", "5,6,7,6/2,3", "3,3/"]:
        spec = parse_spec(text)
        g = build(spec)
        n = spec.length
        assert g.num_vertices == sum(spec.cycle_sizes) - (n - 1)
        assert spec.num_vertices == g.num_vertices
        assert len(g.edges) == sum(spec.cycle_sizes)


def test_build_single_vertex_chain():
    g = build(ChainSpec((), ()))
    assert g.num_vertices == 1 and g.edges == ()
    assert g.vertex_of(VertexLabel(1, 1)) == 0
    assert g.adjacency_masks() == [0]


def test_cut_vertices_carry_two_labels():
    g = build(parse_spec("6,6,6/2"))
    # the gluing vertex of cycles 1 and 2 is position 1 on cycle 1
    assert g.vertex_of(VertexLabel(2, 6)) == g.vertex_of(VertexLabel(1, 1))
    # cycle 3 attaches at position 2 of cycle 2
    assert g.vertex_of(VertexLabel(3, 6)) == g.vertex_of(VertexLabel(2, 2))
    cut = g.vertex_of(VertexLabel(1, 1))
    assert sorted(lab for lab, v in g.labels.items() if v == cut) == [
        VertexLabel(1, 1),
        VertexLabel(2, 6),
    ]


def test_unknown_label_is_an_error():
    g = build(parse_spec("6,6/"))
    with pytest.raises(SpecError, match="no vertex labeled 3:1"):
        g.vertex_of(VertexLabel(3, 1))


def test_closed_neighborhood_of_cut_vertex():
    g = build(parse_spec("6,6/"))
    v = g.vertex_of(VertexLabel(1, 1))
    hood = g.adjacency_masks()[v] | 1 << v
    assert bin(hood).count("1") == 5  # the vertex plus two neighbors in each cycle


def test_delete_vertices_from_cycle_leaves_path():
    g = build(parse_spec("6/"))
    sub = g.delete_vertices([VertexLabel(1, 1)])
    assert sub.num_vertices == 5 and len(sub.edges) == 4
    degrees = sorted(bin(m).count("1") for m in sub.adjacency_masks())
    assert degrees == [1, 1, 2, 2, 2]
    # surviving labels are preserved
    assert sorted(lab.position for lab in sub.labels) == [2, 3, 4, 5, 6]


def test_delete_cut_vertex_disconnects():
    g = build(parse_spec("6,6/"))
    sub = g.delete_vertices([VertexLabel(1, 1)])
    nxg = nx.Graph(sub.edges)
    nxg.add_nodes_from(range(sub.num_vertices))
    assert nx.number_connected_components(nxg) == 2


def _as_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges)
    return nxg


@pytest.mark.parametrize(
    "text",
    ["6/", "3,3/", "6,6,6/3", "5,6,7,6/2,3", "8,3,4,5/1,2", "4,4,4,4/2,2"],
)
def test_built_graphs_are_chains_of_cycle_blocks(text):
    spec = parse_spec(text)
    g = build(spec)
    nxg = _as_networkx(g)
    assert nx.is_connected(nxg)
    blocks = list(nx.biconnected_components(nxg))
    assert len(blocks) == spec.length
    sizes = sorted(len(b) for b in blocks)
    assert sizes == sorted(spec.cycle_sizes)
    for block in blocks:
        sub = nxg.subgraph(block)
        # every block is a cycle: as many edges as vertices, all degrees 2
        assert sub.number_of_edges() == len(block)
        assert all(d == 2 for _, d in sub.degree)
    cuts = set(nx.articulation_points(nxg))
    assert len(cuts) == max(spec.length - 1, 0)
    for cut in cuts:
        assert sum(cut in b for b in blocks) == 2


def test_enumerate_specs_counts_and_order():
    assert len(list(enumerate_specs([6] * 5))) == 27
    assert len(list(enumerate_specs([3, 3, 3, 3]))) == 1
    assert len(list(enumerate_specs([6, 6, 6]))) == 3
    assert len(list(enumerate_specs([6]))) == 1
    assert len(list(enumerate_specs([6, 6]))) == 1
    seqs = [s.positions for s in enumerate_specs([6, 6, 6, 6])]
    assert seqs == sorted(seqs)
    assert seqs[0] == (1, 1) and seqs[-1] == (3, 3)
    # an internal cycle too small to offer any position is still an error
    with pytest.raises(SpecError, match="cycle size 1 < 3 at cycle 2"):
        list(enumerate_specs([6, 1, 6]))


def test_enumerate_specs_reversal_dedupe():
    full = list(enumerate_specs([6] * 5))
    deduped = list(enumerate_specs([6] * 5, dedupe_reversal=True))
    # 27 sequences, 9 of them palindromic: (27 + 9) / 2 survive
    assert len(deduped) == 18
    kept = {s.positions for s in deduped}
    for spec in full:
        assert spec.positions in kept or spec.positions[::-1] in kept
    # a non-palindromic size list is left alone
    assert len(list(enumerate_specs([5, 6, 7], dedupe_reversal=True))) == 3


def test_count_specs_matches_enumeration():
    for sizes in [(6,), (6, 6), (3, 3, 3, 3), (6, 6, 6), (5, 6, 7, 6), (8, 3, 4, 5)]:
        assert count_specs(sizes) == len(list(enumerate_specs(sizes)))
    assert count_specs([12] * 12) == 6**10
    with pytest.raises(SpecError, match="cycle size 1 < 3 at cycle 2"):
        count_specs([6, 1, 6])
    with pytest.raises(SpecError, match="need at least one cycle"):
        count_specs([])


def test_reversed_spec_round_trips():
    spec = parse_spec("5,6,7,6/2,3")
    rev = reversed_spec(spec)
    assert rev.cycle_sizes == (6, 7, 6, 5)
    assert rev.positions == (3, 2)
    assert reversed_spec(rev) == spec
