"""Closed forms and recurrences checked against the engines and frozen values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincacti.chain_model import ChainSpec, build
from chaincacti.closed_forms import (
    alpha_meta,
    alpha_ortho,
    count_mis_meta,
    count_mis_ortho,
    cycle_poly,
    fib_lucas,
    meta_poly,
    meta_recurrence_coeffs,
    ortho_poly,
    path_poly,
    psi_path,
)
from chaincacti.engine import indpoly_bruteforce, indpoly_chain
from chaincacti.polynomial import UniPoly

from conftest import cycle_graph, indpoly_subset_filter, path_graph


PATH_TABLE = {
    0: [1],
    1: [1, 1],
    2: [1, 2],
    3: [1, 3, 1],
    4: [1, 4, 3],
    5: [1, 5, 6, 1],
    6: [1, 6, 10, 4],
}


@pytest.mark.parametrize("n,coeffs", sorted(PATH_TABLE.items()))
def test_path_poly_table(n, coeffs):
    assert path_poly(n) == UniPoly(coeffs)


def test_path_poly_negative_convention():
    assert path_poly(-1) == UniPoly([1])
    assert path_poly(-2) == UniPoly()
    with pytest.raises(ValueError):
        path_poly(-3)


def test_path_poly_recurrence():
    for n in range(0, 25):
        assert path_poly(n) == path_poly(n - 1) + path_poly(n - 2).shift(1)


def test_path_poly_matches_subset_filter():
    for n in range(0, 13):
        assert path_poly(n) == indpoly_subset_filter(path_graph(n))


def test_cycle_poly_values():
    assert cycle_poly(3) == UniPoly([1, 3])
    assert cycle_poly(5) == UniPoly([1, 5, 5])
    assert cycle_poly(6) == UniPoly([1, 6, 9, 2])
    with pytest.raises(ValueError):
        cycle_poly(2)


def test_cycle_poly_matches_subset_filter():
    for n in range(3, 13):
        assert cycle_poly(n) == indpoly_subset_filter(cycle_graph(n))


def test_cycle_poly_path_split():
    # deleting a cycle vertex leaves a path; taking it removes two more
    for n in range(3, 20):
        assert cycle_poly(n) == path_poly(n - 1) + path_poly(n - 3).shift(1)


def test_fib_lucas_sequence():
    pairs = [fib_lucas(n) for n in range(1, 9)]
    assert [p.fib for p in pairs] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert [p.lucas for p in pairs] == [1, 3, 4, 7, 11, 18, 29, 47]
    with pytest.raises(ValueError):
        fib_lucas(0)


def test_psi_path_frozen_values():
    assert [psi_path(n) for n in (1, 2, 3, 4, 5)] == [2, 3, 5, 8, 13]


def test_psi_path_equals_polynomial_count():
    for n in range(1, 40):
        assert psi_path(n) == path_poly(n).eval_at_one()


def test_ortho_poly_short_lengths():
    for h in range(3, 9):
        assert ortho_poly(h, 0) == UniPoly([1, 1])
        assert ortho_poly(h, 1) == cycle_poly(h)
        side = path_poly(h - 3)
        end = path_poly(h - 1)
        assert ortho_poly(h, 2) == (side * side).shift(1) + end * end
        assert meta_poly(h, 2) == ortho_poly(h, 2)


def test_ortho_poly_frozen_values():
    assert ortho_poly(6, 2) == UniPoly([1, 11, 43, 73, 52, 13, 1])
    assert ortho_poly(6, 3).eval_at_one() == 2002


def test_meta_poly_frozen_values():
    assert meta_poly(6, 3).eval_at_one() == 2130
    assert meta_poly(4, 3) == UniPoly([1, 10, 33, 44, 27, 8, 1])


def test_meta_recurrence_coeffs_at_one():
    a, b = meta_recurrence_coeffs(6)
    assert a.eval_at_one() == 12
    assert b.eval_at_one() == 11
    # the recurrence at x = 1 on the frozen h = 6 values
    assert 2130 == 12 * 194 - 11 * 18
    with pytest.raises(ValueError):
        meta_recurrence_coeffs(3)


def test_meta_poly_triangle_scope():
    assert meta_poly(3, 2) == ortho_poly(3, 2)
    with pytest.raises(ValueError, match="meta-position requires h >= 4"):
        meta_poly(3, 3)


@pytest.mark.parametrize("h", range(3, 8))
@pytest.mark.parametrize("n", range(1, 4))
def test_ortho_poly_matches_bruteforce(h, n):
    positions = tuple(1 for _ in range(max(n - 2, 0)))
    g = build(ChainSpec((h,) * n, positions))
    assert ortho_poly(h, n) == indpoly_bruteforce(g)


@pytest.mark.parametrize("h", range(4, 8))
@pytest.mark.parametrize("n", range(1, 4))
def test_meta_poly_matches_bruteforce(h, n):
    positions = tuple(2 for _ in range(max(n - 2, 0)))
    g = build(ChainSpec((h,) * n, positions))
    assert meta_poly(h, n) == indpoly_bruteforce(g)


@given(h=st.integers(min_value=3, max_value=12), n=st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_ortho_poly_matches_transfer_engine(h, n):
    positions = tuple(1 for _ in range(max(n - 2, 0)))
    expected = (
        UniPoly([1, 1]) if n == 0 else indpoly_chain(ChainSpec((h,) * n, positions))
    )
    assert ortho_poly(h, n) == expected


@given(h=st.integers(min_value=4, max_value=12), n=st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_meta_poly_matches_transfer_engine(h, n):
    positions = tuple(min(2, h // 2) for _ in range(max(n - 2, 0)))
    expected = (
        UniPoly([1, 1]) if n == 0 else indpoly_chain(ChainSpec((h,) * n, positions))
    )
    assert meta_poly(h, n) == expected


def test_alpha_formulas_match_polynomials():
    for h in range(3, 9):
        for n in range(1, 6):
            assert alpha_ortho(h, n) == ortho_poly(h, n).degree_and_leading()[0]
    for h in range(4, 9):
        for n in range(1, 6):
            assert alpha_meta(h, n) == meta_poly(h, n).degree_and_leading()[0]


def test_count_mis_formulas_match_polynomials():
    for h in range(3, 9):
        for n in range(2, 6):
            assert count_mis_ortho(h, n) == ortho_poly(h, n).degree_and_leading()[1]
    for h in range(4, 9):
        for n in range(2, 6):
            assert count_mis_meta(h, n) == meta_poly(h, n).degree_and_leading()[1]


def test_alpha_and_count_frozen_values():
    assert alpha_ortho(6, 3) == 8
    assert ortho_poly(6, 3).degree_and_leading() == (8, 5)
    assert alpha_meta(6, 3) == 9
    assert meta_poly(6, 3).degree_and_leading() == (9, 1)
    assert meta_poly(5, 3).degree_and_leading()[1] == 18
    assert alpha_meta(5, 3) == 6
    assert count_mis_meta(7, 4) == 144
    assert count_mis_ortho(5, 4) == 9


def test_alpha_and_count_argument_errors():
    with pytest.raises(ValueError):
        alpha_ortho(2, 3)
    with pytest.raises(ValueError):
        alpha_ortho(6, 0)
    with pytest.raises(ValueError):
        alpha_meta(3, 2)
    with pytest.raises(ValueError):
        count_mis_ortho(6, 1)
    with pytest.raises(ValueError):
        count_mis_meta(3, 4)


def _loop_ortho(h: int, n: int) -> UniPoly:
    # The ortho recurrence as a plain loop over the last two values.
    side = path_poly(h - 3)
    bridge, step = (side * side).shift(1), path_poly(h - 2)
    older, newer = cycle_poly(h), ortho_poly(h, 2)
    for _ in range(3, n + 1):
        older, newer = newer, bridge * older + step * newer
    return newer


def _loop_meta(h: int, n: int) -> UniPoly:
    a, b = meta_recurrence_coeffs(h)
    older, newer = cycle_poly(h), meta_poly(h, 2)
    for _ in range(3, n + 1):
        older, newer = newer, a * newer - (b * older).shift(2)
    return newer


@pytest.mark.parametrize(
    "h,n", [(3, 300), (4, 300), (5, 129), (6, 300), (7, 64), (9, 100), (16, 40), (40, 12)]
)
def test_long_ortho_and_meta_equal_the_loop_and_the_engine(h, n):
    ortho = ortho_poly(h, n)
    assert ortho == _loop_ortho(h, n)
    assert ortho == indpoly_chain(ChainSpec((h,) * n, (1,) * (n - 2)))
    if h >= 4:
        meta = meta_poly(h, n)
        assert meta == _loop_meta(h, n)
        assert meta == indpoly_chain(ChainSpec((h,) * n, (2,) * (n - 2)))
