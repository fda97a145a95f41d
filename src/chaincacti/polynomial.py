"""Dense univariate polynomials over Python's arbitrary-precision integers.

Independence polynomials live here: the degree is the independence number,
the coefficient sum is the total count of independent sets, the leading
coefficient counts the maximum independent sets.  Coefficients are signed
because recurrence intermediates can go negative; only finished independence
polynomials are expected to be nonnegative, and that is checked where they
are produced, not here.
"""

from __future__ import annotations

import enum
import sys
from functools import cache
from itertools import zip_longest
from typing import Iterable, Sequence

#: A product whose operands both have at least this many terms is one
#: decimal multiply by Kronecker substitution; a smaller one is the
#: schoolbook loop.  Measured crossover, see README.
KRONECKER_TERMS = 64


class Dominance(enum.Enum):
    """Outcome of comparing two polynomials coefficient by coefficient."""

    EQUAL = "equal"
    #: first argument <= second in every coefficient and differs somewhere
    STRICTLY_DOMINATED = "strictly_dominated"
    #: second argument <= first in every coefficient and differs somewhere
    STRICTLY_DOMINATES = "strictly_dominates"
    INCOMPARABLE = "incomparable"


class UniPoly:
    """Immutable dense polynomial; ``coeffs[k]`` is the coefficient of x^k.

    Trailing zeros are trimmed on construction, so the zero polynomial has an
    empty coefficient tuple and every other polynomial ends in a nonzero
    entry.  ``degree_and_leading`` is therefore undefined (an error) for the
    zero polynomial.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        """Coefficient of x^k, zero beyond the stored length."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def degree_and_leading(self) -> tuple[int, int]:
        """(degree, leading coefficient); error on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("degree undefined for the zero polynomial")
        return len(self.coeffs) - 1, self.coeffs[-1]

    def eval_at_one(self) -> int:
        """Value at x = 1, i.e. the coefficient sum."""
        return sum(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        out = list(self.coeffs)
        bl = len(other.coeffs)
        if bl > len(out):
            out.extend([0] * (bl - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return UniPoly(out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) >= KRONECKER_TERMS and len(b) >= KRONECKER_TERMS:
            context = _decimal_context()
            if context is not None:
                return UniPoly(_kronecker(a, b, context))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"negative shift {k}")
        if not self.coeffs:
            return ZERO
        return UniPoly((0,) * k + self.coeffs)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        """Human form ``c0 + c1*x + c2*x^2 + ...`` with zero terms omitted."""
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = f"{mag}*x"
            else:
                term = f"{mag}*x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {term}")
        return " ".join(parts) if parts else "0"

    def to_coeff_strings(self) -> list[str]:
        """JSON form: coefficients as decimal strings, constant term first."""
        return [str(c) for c in self.coeffs]


ZERO = UniPoly()
ONE = UniPoly([1])
X = UniPoly([0, 1])


# -- large products -------------------------------------------------------------


@cache
def _decimal_context():
    """An exact-integer context of the C ``decimal`` module, or None without it.

    Its multiply uses a number-theoretic transform, where ``int`` stops at
    Karatsuba.  The module is imported on the first large product, so small
    work never loads it; the pure-Python ``_pydecimal`` multiplies in
    quadratic time and is never used.
    """
    try:
        import _decimal
    except ImportError:
        return None
    return _decimal.Context(
        prec=_decimal.MAX_PREC, Emax=_decimal.MAX_EMAX, Emin=_decimal.MIN_EMIN
    )


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], context) -> list[int]:
    # Kronecker substitution x = 10^w: the exact product of a(10^w) and
    # b(10^w) holds each coefficient of a*b in its own slot of w digits.
    # Every |coefficient| is at most bound < 10^(w-1), so a nonnegative one
    # fills its slot without a carry into the next.  With a negative operand
    # coefficient, each slot is offset by half its size, 5*10^(w-1), so that
    # every slot value lies in (0, 10^w).  A slot wider than the
    # interpreter's int/str digit limit is converted through ``decimal``,
    # to which the limit does not apply; a narrower one by ``%`` and
    # ``int``, which are faster.
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = context.create_decimal(bound).adjusted() + 2
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    wide = 0 < limit < w
    n = len(a) + len(b) - 1
    x, y = _pack(a, w, context, wide), _pack(b, w, context, wide)
    if min(a) < 0 or min(b) < 0:
        half = 5 * 10 ** (w - 1)
        offset = ("5" + "0" * (w - 1)) * n
        value = context.fma(x, y, context.create_decimal(offset))
    else:
        half = 0
        value = context.multiply(x, y)
    # Each big temporary goes as soon as it has been read.
    del x, y
    digits = str(value)
    del value
    to_int = (lambda slot: int(context.create_decimal(slot))) if wide else int
    # Slot k ends k*w digits from the right; the top slot may be shorter.
    out = []
    end = len(digits)
    for _ in range(n):
        out.append(to_int(digits[max(end - w, 0) : end]) - half)
        end -= w
    return out


def _pack(coeffs: tuple[int, ...], w: int, context, wide: bool):
    # The value at x = 10^w, highest slot first, formatted in one pass;
    # negative coefficients are packed apart and subtracted.
    def slots(values: list[int]) -> str:
        if wide:
            return "".join([format(context.create_decimal(c), f"0{w}") for c in values])
        return (f"%0{w}d" * len(values)) % tuple(values)

    value = context.create_decimal(slots([max(c, 0) for c in reversed(coeffs)]))
    if min(coeffs) < 0:
        negative = slots([max(-c, 0) for c in reversed(coeffs)])
        value = context.subtract(value, context.create_decimal(negative))
    return value


# -- products of 2x2 polynomial matrices ------------------------------------------

#: A 2x2 polynomial matrix, row by row: ((a, b), (c, d)) is (a, b, c, d).
Matrix = tuple[UniPoly, UniPoly, UniPoly, UniPoly]
Row = tuple[UniPoly, UniPoly]


def row_times(row: Row, m: Matrix) -> Row:
    """``row · m``: one transfer step."""
    p, q = row
    a, b, c, d = m
    return p * a + q * c, p * b + q * d


def _matrix_times(m: Matrix, n: Matrix) -> Matrix:
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def row_times_matrices(row: Row, matrices: Sequence[Matrix]) -> Row:
    """``row · matrices[0] · matrices[1] · ...``, exactly, by a balanced product tree.

    The row times the first half, recursively, then times the product of the
    second half, so the top level is (v·L)·R, four large products rather
    than the eight of L·R; the recursion ends at single steps.  Equal
    consecutive matrices form a run whose powers are found by squaring and
    computed once, so a uniform sequence of length n costs O(log n) matrix
    products.
    """
    runs: list[tuple[Matrix, int]] = []
    for m in matrices:
        if runs and runs[-1][0] == m:
            runs[-1] = (m, runs[-1][1] + 1)
        else:
            runs.append((m, 1))
    return _row_times_runs(row, runs, len(matrices), {})


def row_product_column(row: Row, matrices: Sequence[Matrix], column: Row) -> UniPoly:
    """``row · matrices[0] · matrices[1] ··· column``, exactly.

    The column enters as the first column of a last matrix whose second
    column is zero, so half the products of the tree's right spine are
    free, and the top level makes two large products rather than four.
    """
    u, v = column
    return row_times_matrices(row, [*matrices, (u, ZERO, v, ZERO)])[0]


def _split(runs: list[tuple[Matrix, int]], steps: int):
    # The first ``steps`` steps of ``runs`` and the rest, cutting a run if needed.
    for i, (m, count) in enumerate(runs):
        if steps < count:
            head = runs[:i] + [(m, steps)] if steps else runs[:i]
            return head, [(m, count - steps)] + runs[i + 1 :]
        steps -= count
    return runs, []


def _row_times_runs(row: Row, runs, steps: int, powers: dict) -> Row:
    if not steps:
        # The leftmost leaf: every level above has its right-hand product
        # by now, so the powers are no longer needed.
        powers.clear()
        return row
    half = steps // 2
    left, right = _split(runs, half)
    # The right half first: its powers serve every smaller level below.
    right_product = _product(right, steps - half, powers)
    return row_times(_row_times_runs(row, left, half, powers), right_product)


def _product(runs, steps: int, powers: dict) -> Matrix:
    if len(runs) == 1:
        return _power(*runs[0], powers)
    half = steps // 2
    left, right = _split(runs, half)
    return _matrix_times(_product(left, half, powers), _product(right, steps - half, powers))


def _power(m: Matrix, count: int, powers: dict) -> Matrix:
    # m^count as m^(count - count//2) · m^(count//2), each power computed once.
    if count == 1:
        return m
    key = (m, count)
    if key not in powers:
        half = count // 2
        powers[key] = _matrix_times(_power(m, count - half, powers), _power(m, half, powers))
    return powers[key]


def dominance(a: UniPoly, b: UniPoly) -> Dominance:
    """Classify ``a`` against ``b`` in the coefficientwise partial order.

    The shorter polynomial is padded with zeros.  Strict dominance means
    "<= in every coefficient and not equal"; with equality split out first,
    the four enum values partition all pairs.
    """
    if a.coeffs == b.coeffs:
        return Dominance.EQUAL
    a_le_b = b_le_a = True
    for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0):
        if x < y:
            b_le_a = False
        elif y < x:
            a_le_b = False
        if not (a_le_b or b_le_a):
            return Dominance.INCOMPARABLE
    return Dominance.STRICTLY_DOMINATED if a_le_b else Dominance.STRICTLY_DOMINATES
