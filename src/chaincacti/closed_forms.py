"""Closed forms and recurrences for paths, cycles, and uniform chains.

An ortho-chain puts every internal cut vertex at distance 1 from the previous
one; a meta-chain at distance 2.  For a fixed cycle size h these two families
bracket every chain cactus of the same length, which is what the extremal
module verifies exhaustively.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .polynomial import ONE, ZERO, UniPoly, row_product_column


@lru_cache(maxsize=None)
def path_poly(n: int) -> UniPoly:
    """Independence polynomial of the path on n vertices.

    Coefficient of x^k is C(n+1-k, k).  The domain is extended backwards via
    i(P_n) = i(P_{n-1}) + x*i(P_{n-2}), giving 1 at n = -1 and 0 at n = -2,
    so cycle and chain formulas need no case splits at small cycle sizes.
    Anything below -2 is a hard error rather than a silent zero.
    """
    if n < -2:
        raise ValueError(f"path length {n} below -2 has no meaning here")
    if n == -2:
        return UniPoly()
    if n <= 0:
        return UniPoly([1])
    return UniPoly([comb(n + 1 - k, k) for k in range((n + 1) // 2 + 1)])


def cycle_poly(n: int) -> UniPoly:
    """Independence polynomial of the cycle on n >= 3 vertices.

    Coefficient of x^k is n/(n-k) * C(n-k, k); the prefactor is computed
    exactly, and an AssertionError is raised if it does not reduce to an
    integer.
    """
    if n < 3:
        raise ValueError(f"cycle size {n} < 3")
    coeffs = []
    for k in range(n // 2 + 1):
        q, r = divmod(n * comb(n - k, k), n - k)
        if r:
            raise AssertionError("cycle coefficient must be integral")
        coeffs.append(q)
    return UniPoly(coeffs)


class FibLucas(NamedTuple):
    fib: int
    lucas: int


def fib_lucas(n: int) -> FibLucas:
    """Fibonacci/Lucas pair with F_1 = F_2 = 1 and L_1 = 1, L_2 = 3."""
    if n < 1:
        raise ValueError(f"index {n} < 1")
    if n == 1:
        return FibLucas(1, 1)
    f_prev, f = 1, 1
    l_prev, l = 1, 3
    for _ in range(n - 2):
        f_prev, f = f, f + f_prev
        l_prev, l = l, l + l_prev
    return FibLucas(f, l)


def psi_path(n: int) -> int:
    """Total number of independent sets in the path on n >= 1 vertices.

    Equals (3*F_n + L_n) / 2, which is always an even split.
    """
    fl = fib_lucas(n)
    num = 3 * fl.fib + fl.lucas
    if num % 2:
        raise AssertionError("3F + L must be even")
    return num // 2


def _short_chain_poly(h: int, n: int) -> UniPoly:
    """Chains of length 0, 1, 2 have no internal cycle, so ortho = meta."""
    if n == 0:
        return UniPoly([1, 1])
    if n == 1:
        return cycle_poly(h)
    side = path_poly(h - 3)
    end = path_poly(h - 1)
    return (side * side).shift(1) + end * end


def ortho_poly(h: int, n: int) -> UniPoly:
    """Independence polynomial of the ortho-chain of n cycles of size h.

    For n >= 3 the two-term recurrence
    i(O_n) = x*i(P_{h-3})^2 * i(O_{n-2}) + i(P_{h-2}) * i(O_{n-1})
    is one step (i(O_{n-1}), i(O_{n-2})) -> (i(O_n), i(O_{n-1})) by the
    companion matrix [[i(P_{h-2}), 1], [x*i(P_{h-3})^2, 0]], taken n - 2
    times from (i(O_2), i(O_1)) by a product tree.
    """
    if h < 3:
        raise ValueError(f"cycle size {h} < 3")
    if n < 0:
        raise ValueError(f"chain length {n} < 0")
    if n <= 2:
        return _short_chain_poly(h, n)
    side = path_poly(h - 3)
    companion = (path_poly(h - 2), ONE, (side * side).shift(1), ZERO)
    return _iterate(companion, h, n)


def _iterate(companion, h: int, n: int) -> UniPoly:
    # i(chain_n): the first entry of (i(chain_2), i(chain_1)) after n - 2
    # companion steps.
    start = (_short_chain_poly(h, 2), _short_chain_poly(h, 1))
    return row_product_column(start, [companion] * (n - 2), (ONE, ZERO))


def meta_recurrence_coeffs(h: int) -> tuple[UniPoly, UniPoly]:
    """Coefficient pair (a, b) of the meta-chain recurrence.

    For n >= 3, i(M_n) = a * i(M_{n-1}) - x^2 * b * i(M_{n-2}) with

        a = x^2*i(P_{h-5}) + x*(i(P_{h-4}) + 2*i(P_{h-5})) + i(P_{h-4})
        b = x*i(P_{h-5})^2 + i(P_{h-5})^2 + i(P_{h-4})*i(P_{h-5})
            - i(P_{h-4})*i(P_{h-6})

    b can carry signed intermediates; the chain polynomials themselves come
    out nonnegative.
    """
    if h < 4:
        raise ValueError("meta-position requires h >= 4")
    p4 = path_poly(h - 4)
    p5 = path_poly(h - 5)
    p6 = path_poly(h - 6)
    a = p5.shift(2) + (p4 + p5 + p5).shift(1) + p4
    b = (p5 * p5).shift(1) + p5 * p5 + p4 * p5 - p4 * p6
    return a, b


def meta_poly(h: int, n: int) -> UniPoly:
    """Independence polynomial of the meta-chain of n cycles of size h.

    Lengths 0..2 coincide with the ortho-chain.  For n >= 3 a meta position
    needs room for a cut vertex at distance 2, hence h >= 4, and the
    recurrence of ``meta_recurrence_coeffs`` is iterated as ``ortho_poly``
    iterates its own, by the companion matrix [[a, 1], [-x^2*b, 0]].
    """
    if h < 3:
        raise ValueError(f"cycle size {h} < 3")
    if n < 0:
        raise ValueError(f"chain length {n} < 0")
    if n <= 2:
        return _short_chain_poly(h, n)
    if h == 3:
        raise ValueError("meta-position requires h >= 4")
    a, b = meta_recurrence_coeffs(h)
    return _iterate((a, ONE, ZERO - b.shift(2), ZERO), h, n)


def alpha_ortho(h: int, n: int) -> int:
    """Independence number of the ortho-chain (h >= 3, n >= 1)."""
    if h < 3:
        raise ValueError(f"cycle size {h} < 3")
    if n < 1:
        raise ValueError(f"chain length {n} < 1")
    if h % 2 == 0:
        return n * h // 2 - (n - 1) // 2
    return n * (h - 1) // 2


def alpha_meta(h: int, n: int) -> int:
    """Independence number of the meta-chain (h >= 4, n >= 1)."""
    if h < 4:
        raise ValueError("meta-position requires h >= 4")
    if n < 1:
        raise ValueError(f"chain length {n} < 1")
    return n * (h // 2)


def count_mis_ortho(h: int, n: int) -> int:
    """Number of maximum independent sets in the ortho-chain, n >= 2.

    For n < 2 there is no uniform expression; length-1 callers should read
    the leading coefficient of cycle_poly instead.
    """
    if h < 3:
        raise ValueError(f"cycle size {h} < 3")
    if n < 2:
        raise ValueError(f"chain length {n} < 2")
    if h % 2 == 1:
        return ((h + 1) // 2) ** 2
    if n % 2 == 0:
        return 1
    return 2 + (n - 1) // 2 * (h // 2)


def count_mis_meta(h: int, n: int) -> int:
    """Number of maximum independent sets in the meta-chain, h >= 4, n >= 2."""
    if h < 4:
        raise ValueError("meta-position requires h >= 4")
    if n < 2:
        raise ValueError(f"chain length {n} < 2")
    if h % 2 == 0:
        return 1
    return ((h - 1) // 2) ** (n - 2) * ((h + 1) // 2) ** 2
