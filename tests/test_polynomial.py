"""Polynomial arithmetic, rendering, and dominance classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincacti.polynomial import ONE, ZERO, Dominance, UniPoly, dominance

P4 = UniPoly([1, 4, 3])
P5 = UniPoly([1, 5, 6, 1])


def test_trailing_zeros_trimmed():
    assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert UniPoly([0, 0, 0]).coeffs == ()
    assert UniPoly([]).is_zero


def test_zero_polynomial_has_no_degree():
    with pytest.raises(ValueError, match="zero polynomial"):
        ZERO.degree_and_leading()


def test_degree_and_leading():
    assert P5.degree_and_leading() == (3, 1)
    assert UniPoly([7]).degree_and_leading() == (0, 7)


def test_addition_and_subtraction():
    assert UniPoly([1, 2]) + UniPoly([0, 1, 5]) == UniPoly([1, 3, 5])
    assert UniPoly([1, 2]) - UniPoly([2, 1]) == UniPoly([-1, 1])
    assert UniPoly([1, 2]) - UniPoly([1, 2]) == ZERO


def test_product_of_path_polynomials():
    # two disjoint four-vertex paths
    assert P4 * P4 == UniPoly([1, 8, 22, 24, 9])
    assert P4 * ZERO == ZERO
    assert P4 * ONE == P4


def test_shift_is_multiplication_by_x_power():
    assert P4.shift(2) == UniPoly([0, 0, 1, 4, 3])
    assert ZERO.shift(3) == ZERO
    with pytest.raises(ValueError):
        P4.shift(-1)


def test_eval_at_one_sums_coefficients():
    assert P5.eval_at_one() == 13
    assert ZERO.eval_at_one() == 0


def test_coefficient_access():
    assert P4.coefficient(1) == 4
    assert P4.coefficient(9) == 0
    with pytest.raises(ValueError):
        P4.coefficient(-1)


def test_text_rendering():
    assert str(UniPoly([1, 6, 9, 2])) == "1 + 6*x + 9*x^2 + 2*x^3"
    assert str(UniPoly([0, 1])) == "1*x"
    assert str(UniPoly([1, 0, 2])) == "1 + 2*x^2"
    assert str(UniPoly([-1, 1])) == "-1 + 1*x"
    assert str(UniPoly([2, -3, 0, 1])) == "2 - 3*x + 1*x^3"
    assert str(ZERO) == "0"


def test_json_coefficient_strings_round_trip():
    big = UniPoly([1, 10**40, -(3**90)])
    strings = big.to_coeff_strings()
    assert strings[1] == str(10**40)
    assert UniPoly(int(c) for c in strings) == big
    assert ZERO.to_coeff_strings() == []


def test_dominance_classification():
    assert dominance(P4, P4) is Dominance.EQUAL
    assert dominance(P4, P5) is Dominance.STRICTLY_DOMINATED
    assert dominance(P5, P4) is Dominance.STRICTLY_DOMINATES
    assert dominance(UniPoly([1, 2]), UniPoly([2, 1])) is Dominance.INCOMPARABLE
    # shorter operand is padded with zeros
    assert dominance(UniPoly([1, 1]), UniPoly([1, 1, 1])) is Dominance.STRICTLY_DOMINATED


coeff_lists = st.lists(
    st.integers(min_value=-(10**12), max_value=10**12), min_size=0, max_size=8
)
polys = coeff_lists.map(UniPoly)


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_eval_at_one_is_ring_homomorphism(a, b):
    assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


@given(polys, st.integers(min_value=0, max_value=5))
def test_shift_agrees_with_monomial_product(a, k):
    assert a.shift(k) == a * UniPoly([0] * k + [1])


@given(polys, polys)
def test_degree_of_product_adds(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        da, la = a.degree_and_leading()
        db, lb = b.degree_and_leading()
        dp, lp = (a * b).degree_and_leading()
        assert dp == da + db and lp == la * lb


@given(polys, polys)
def test_dominance_is_antisymmetric(a, b):
    rel = dominance(a, b)
    flipped = dominance(b, a)
    if rel is Dominance.EQUAL:
        assert flipped is Dominance.EQUAL
    elif rel is Dominance.STRICTLY_DOMINATED:
        assert flipped is Dominance.STRICTLY_DOMINATES
    elif rel is Dominance.STRICTLY_DOMINATES:
        assert flipped is Dominance.STRICTLY_DOMINATED
    else:
        assert flipped is Dominance.INCOMPARABLE


@given(polys, polys)
def test_strict_dominance_implies_smaller_psi(a, b):
    if dominance(a, b) is Dominance.STRICTLY_DOMINATED:
        assert a.eval_at_one() < b.eval_at_one()


@given(polys, polys)
def test_dominance_matches_the_padded_definition(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    le = all(a.coefficient(k) <= b.coefficient(k) for k in range(n))
    ge = all(b.coefficient(k) <= a.coefficient(k) for k in range(n))
    expected = {
        (True, True): Dominance.EQUAL,
        (True, False): Dominance.STRICTLY_DOMINATED,
        (False, True): Dominance.STRICTLY_DOMINATES,
        (False, False): Dominance.INCOMPARABLE,
    }[le, ge]
    assert dominance(a, b) is expected
