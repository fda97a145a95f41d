"""Polynomial arithmetic, rendering, and dominance classification."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincacti import polynomial
from chaincacti.polynomial import ONE, ZERO, Dominance, UniPoly, dominance, row_times_matrices

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


# -- large products and the matrix product tree ---------------------------------


def _schoolbook(a: UniPoly, b: UniPoly) -> UniPoly:
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return UniPoly(out)


K = polynomial.KRONECKER_TERMS
signed_terms = st.lists(
    st.integers(min_value=-(10**40), max_value=10**40), min_size=0, max_size=2 * K + 8
)


@settings(max_examples=60, deadline=None)
@given(signed_terms, signed_terms)
def test_kronecker_product_equals_schoolbook_across_the_threshold(a, b):
    a, b = UniPoly(a), UniPoly(b)
    assert a * b == _schoolbook(a, b)


@pytest.mark.parametrize("sign_a,sign_b", [(1, 1), (1, -1), (-1, -1)])
@pytest.mark.parametrize("digits", [1, 2, 30])
def test_kronecker_product_at_the_slot_bound(sign_a, sign_b, digits):
    # Every coefficient is the largest of its digit count, so the middle
    # coefficient of the product is exactly the bound the slot width is
    # taken from; K copies make its leading digit at least 5, so a slot one
    # digit short overflows, with either sign.
    top = 10**digits - 1
    for m in (K, K + 1, 3 * K):
        a = UniPoly([sign_a * top] * m)
        b = UniPoly([sign_b * top] * (m + 1))
        assert a * b == _schoolbook(a, b)
        assert (a * b).coeffs[m - 1] == sign_a * sign_b * m * top * top
    # one operand of one term, or zero, never reaches the decimal path
    big = UniPoly([top] * (2 * K))
    assert big * UniPoly([-top]) == _schoolbook(big, UniPoly([-top]))
    assert big * ZERO == ZERO == ZERO * big


def test_large_products_fall_back_without_the_c_decimal_module(monkeypatch):
    rng = random.Random(7)
    a = UniPoly([rng.randrange(-(10**50), 10**50) for _ in range(3 * K)])
    b = UniPoly([rng.randrange(10**50) for _ in range(2 * K)])
    expected = _schoolbook(a, b)
    polynomial._decimal_context.cache_clear()
    monkeypatch.setitem(sys.modules, "_decimal", None)
    try:
        assert polynomial._decimal_context() is None
        assert a * b == expected
    finally:
        polynomial._decimal_context.cache_clear()
    monkeypatch.undo()
    assert polynomial._decimal_context() is not None
    assert a * b == expected


def test_large_products_respect_the_int_digit_limit(monkeypatch):
    # Slots wider than the interpreter's int/str digit limit are not packed:
    # the product falls back to the schoolbook loop instead of raising.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit on this interpreter")
    a = UniPoly([10**700 + i for i in range(K)])
    expected = _schoolbook(a, a)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert a * a == expected
    finally:
        sys.set_int_max_str_digits(old)


def _scan(row, matrices):
    p, q = row
    for a, b, c, d in matrices:
        p, q = p * a + q * c, p * b + q * d
    return p, q


def _random_matrix(rng: random.Random) -> tuple[UniPoly, ...]:
    def entry():
        if rng.random() < 0.15:
            return ZERO
        return UniPoly([rng.randrange(-3, 8) for _ in range(rng.randrange(1, 4))])

    return tuple(entry() for _ in range(4))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=300))
def test_row_times_matrices_equals_a_scan(seed, length):
    # Runs of a few distinct matrices, so the tree powers runs and also
    # splits runs at its halves; the order of the factors matters.
    rng = random.Random(seed)
    pool = [_random_matrix(rng) for _ in range(rng.randrange(1, 4))]
    matrices = []
    while len(matrices) < length:
        matrices.extend([rng.choice(pool)] * rng.randrange(1, 40))
    matrices = matrices[:length]
    row = (UniPoly([1, rng.randrange(3)]), UniPoly([0, 1]))
    assert row_times_matrices(row, matrices) == _scan(row, matrices)
