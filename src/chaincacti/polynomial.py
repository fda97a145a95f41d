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
from itertools import zip_longest
from typing import Iterable


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
