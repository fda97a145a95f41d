"""Three independent evaluators for independence polynomials.

- ``indpoly_bruteforce``: the counting kernel over adjacency bitmasks,
  capped at 32 vertices.  It branches on the lowest-id vertex, memoized on
  the remaining-vertex bitmask, and never splits components.  The oracle the
  other two are measured against.
- ``indpoly_recursive``: the generic deletion identity
  i(G) = i(G - u) + x * i(G - N[u]) on a maximum-degree pivot, with
  component factorization and memoization, on an explicit stack; works on
  any graph of up to ``MEMO_VERTEX_CAP`` vertices.
- ``indpoly_chain``: the transfer method, which exploits the chain
  structure: a start state times one cached 2x2 polynomial step matrix
  M(h, k) per cycle, multiplied out by a balanced product tree on long
  chains.  ``walk_chains`` scans every chain of a size list step by step,
  one step per shared prefix.

All three return exact integer-coefficient polynomials and must agree; the
verification module checks that exhaustively at desk scale.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .chain_model import ChainSpec, LabeledGraph, SpecError, all_ones_spec, position_sequences
from .closed_forms import path_poly
from .kernels import count_independent_sets
from .polynomial import (
    KRONECKER_TERMS,
    ONE,
    X,
    UniPoly,
    row_product_column,
    row_times,
    row_times_matrices,
)

#: Hard ceiling for brute-force enumeration.
BRUTE_FORCE_CAP = 32


#: Largest chain, in vertices, that ``poly`` on the transfer engine and
#: ``closed`` accept.  At the cap, ``closed ortho --h 3 --n 15000`` takes
#: about 50 s and 340 MB on a 2-core Xeon VM.
CHAIN_VERTEX_CAP = 30_001

#: Largest graph, in vertices, for the pivot recursion and the chain walk,
#: which keep a polynomial per subgraph or prefix.  At the cap the recursion
#: takes up to 9.1 s and 677 MB, a sweep 159 s and 996 MB (README, Caps).
MEMO_VERTEX_CAP = 2_201


class VertexCapError(ValueError):
    """Work past a cap, refused before it starts; raised only by ``refuse_past``."""


def refuse_past(amount: int, cap: int, what: str, unit: str) -> None:
    """The one rule for every cap: refuse an ``amount`` of ``unit`` past ``cap``."""
    if amount > cap:
        raise VertexCapError(f"{what} {count_text(amount)} {unit} exceeds the cap of {cap} {unit}")


def count_text(count: int) -> str:
    """A count for a cap message: in full up to 30 digits, else its digit
    count; a ``Decimal`` is a power of ten below a count too large to compute."""
    if not isinstance(count, int):
        return f"more than 10^{count.adjusted():,}"
    if count < 10**30:
        return str(count)
    # The digit count from the bit length, corrected by at most one power of
    # ten, so that a count of any size is never converted to a string.
    digits = int((count.bit_length() - 1) * math.log10(2)) + 1
    if count >= 10**digits:
        digits += 1
    elif count < 10 ** (digits - 1):
        digits -= 1
    return f"a {digits:,}-digit number of"


def _check_indpoly(p: UniPoly, num_vertices: int) -> UniPoly:
    # Boundary sanity for every finished independence polynomial.
    # Raised explicitly rather than asserted, so the check survives python -O.
    if p.coefficient(0) != 1:
        raise AssertionError("empty set must be counted once")
    if p.coefficient(1) != num_vertices:
        raise AssertionError("singletons must count vertices")
    if any(c < 0 for c in p.coeffs):
        raise AssertionError("counts cannot be negative")
    return p


def indpoly_bruteforce(g: LabeledGraph) -> UniPoly:
    """Independence polynomial from the counting kernel (|V| <= 32).

    The kernel branches on the lowest-id remaining vertex in a fixed order
    and memoizes on the remaining-vertex bitmask; unlike
    ``indpoly_recursive`` it picks no max-degree pivot and never splits the
    graph into components.
    """
    refuse_past(g.num_vertices, BRUTE_FORCE_CAP, "brute force on a graph of", "vertices")
    counts = count_independent_sets(g.adjacency_masks())
    return _check_indpoly(UniPoly(counts), g.num_vertices)


def indpoly_recursive(g: LabeledGraph) -> UniPoly:
    """Independence polynomial by pivot recursion with memoization.

    Pivot: a maximum-degree vertex of the current induced subgraph, ties
    broken by smallest id.  Subgraphs are keyed by their surviving-vertex
    bitset; connected components are solved independently and multiplied.
    Coefficients are kept as plain lists internally and boxed once at the end.
    The recursion runs on an explicit stack, so the depth of a graph's pivot
    tree is not bounded by the interpreter's recursion limit.  Graphs past
    ``MEMO_VERTEX_CAP`` vertices are refused.
    """
    refuse_past(g.num_vertices, MEMO_VERTEX_CAP, "recursion on a graph of", "vertices")
    masks = g.adjacency_masks()
    nv = g.num_vertices
    memo: dict[int, list[int]] = {0: [1]}
    # (subgraph, its parts once split, whether the parts are components); a
    # frame is pushed back under its parts and combined once they are solved.
    stack: list[tuple[int, tuple[int, ...], bool]] = [((1 << nv) - 1, (), False)]
    while stack:
        sub, parts, split = stack.pop()
        if sub in memo:
            continue
        if not parts:
            comps = _components(sub, masks)
            split = len(comps) > 1
            if split:
                parts = tuple(comps)
            else:
                v = _pivot(sub, masks)
                bit = 1 << v
                parts = (sub & ~bit, sub & ~(masks[v] | bit))
            stack.append((sub, parts, split))
            stack.extend((part, (), False) for part in parts if part not in memo)
            continue
        if split:
            result = [1]
            for comp in parts:
                result = _mul(result, memo[comp])
        else:
            without, closed = parts
            result = _add(memo[without], [0] + memo[closed])
        memo[sub] = result
    return _check_indpoly(UniPoly(memo[(1 << nv) - 1]), nv)


def _pivot(sub: int, masks: list[int]) -> int:
    best, best_deg = -1, -1
    rem = sub
    while rem:
        low = rem & -rem
        v = low.bit_length() - 1
        rem ^= low
        deg = (masks[v] & sub).bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
    return best


def _components(sub: int, masks: list[int]) -> list[int]:
    comps = []
    rem = sub
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= masks[low.bit_length() - 1]
                f ^= low
            frontier = reach & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


# -- transfer scan ----------------------------------------------------------


class TransferState(NamedTuple):
    """Independence-polynomial mass of a chain prefix, split by its exit vertex.

    ``p`` counts the independent sets of the prefix that avoid the exit cut
    vertex; ``q`` counts those that contain it (with the exit vertex's own x
    factor included, so q is divisible by x and p + q is the prefix's full
    independence polynomial).
    """

    p: UniPoly
    q: UniPoly


#: The scan starts from the lone entry vertex of the first cycle.
_START = TransferState(ONE, X)


@lru_cache(maxsize=None)
def _step_matrix(h: int, k: int) -> tuple[UniPoly, UniPoly, UniPoly, UniPoly]:
    # M(h, k) = [[pp, pq], [qp, qq]] for a cycle of size h entered at its
    # position h and left at position k: entry pp weighs the sets that avoid
    # both cut vertices, pq those that avoid the entry and take the exit, and
    # so on.  The cycle's two arcs have a = k-1 and b = h-k-1 interior
    # vertices; an occupied cut vertex forbids the arc vertex next to it, and
    # path_poly(-2) = 0 rules out an empty arc between two occupied ends.
    a, b = k - 1, h - k - 1
    pp = path_poly(a) * path_poly(b)
    qp = path_poly(a - 1) * path_poly(b - 1)
    qq = (path_poly(a - 2) * path_poly(b - 2)).shift(1)
    return pp, qp.shift(1), qp, qq


def _steps(spec: ChainSpec, through_cycle: int) -> list:
    # M(h_1, 1), M(h_2, k_2), ..., through cycle ``through_cycle``: the
    # first cycle is left at position 1, internal cycle j at k_j.
    sizes = spec.cycle_sizes[:through_cycle]
    return [_step_matrix(h, k) for h, k in zip(sizes, (1, *spec.positions))]


@lru_cache(maxsize=4096)
def _prefix_state(spec: ChainSpec, through_cycle: int) -> TransferState:
    # Cached, so the per-position deletion queries of the verification suite
    # pay for the prefix once per spec.
    return TransferState(*row_times_matrices(_START, _steps(spec, through_cycle)))


def transfer_state(spec: ChainSpec, through_cycle: int) -> TransferState:
    """State after absorbing cycles 1..through_cycle (1 <= through < n).

    The exit vertex is the attachment position on cycle ``through_cycle``:
    position 1 on the first cycle, the spec's position on internal ones.
    Recently computed prefixes are cached.
    """
    n = spec.length
    if not 1 <= through_cycle <= n - 1:
        raise SpecError(f"through_cycle {through_cycle} outside 1..{n - 1}")
    return _prefix_state(spec, through_cycle)


def _close(
    state: tuple[UniPoly, UniPoly], h: int, num_vertices: int, top: int
) -> tuple[UniPoly, tuple[UniPoly, ...]]:
    # Close a chain whose prefix state before its last cycle (size h) is
    # ``state``: its polynomial and i(A - v_k) for k = 1..top.  i(A - v_k) is
    # the p column of the last step, the sets that avoid v_k; the q column
    # is not needed, so it is not computed.  The chain's sets either avoid
    # v_1 or take it, so the k = 1 deletion is reused.
    p, q = state
    deletions = []
    for k in range(1, top + 1):
        pp, _, qp, _ = _step_matrix(h, k)
        deletions.append(_check_indpoly(p * pp + q * qp, num_vertices - 1))
    _, pq, _, qq = _step_matrix(h, 1)
    chain = deletions[0] + p * pq + q * qq
    return _check_indpoly(chain, num_vertices), tuple(deletions)


def _scan_times(spec: ChainSpec, u: UniPoly, v: UniPoly) -> UniPoly:
    # The state before the last cycle times the column (u, v).
    if spec.num_vertices < 2 * KRONECKER_TERMS:
        # Every product is small: share the cached prefix with the chain's
        # other queries.
        p, q = _prefix_state(spec, spec.length - 1)
        return p * u + q * v
    return row_product_column(_START, _steps(spec, spec.length - 1), (u, v))


def indpoly_chain(spec: ChainSpec) -> UniPoly:
    """Independence polynomial of a chain cactus by the transfer method.

    The chain's sets avoid or take v_1 of the last cycle, so its polynomial
    is the state before that cycle times the column (pp + pq, qp + qq) of
    M(h_n, 1).
    """
    if spec.length < 1:
        raise SpecError("chain engine requires at least one cycle")
    pp, pq, qp, qq = _step_matrix(spec.cycle_sizes[-1], 1)
    return _check_indpoly(_scan_times(spec, pp + pq, qp + qq), spec.num_vertices)


def indpoly_chain_minus_last_vertex(spec: ChainSpec, k: int) -> UniPoly:
    """Independence polynomial of the chain with vertex k of the last cycle removed.

    k runs over 1..h_n - 1 (position h_n is the cut vertex shared with the
    previous cycle).  The sets of the chain that avoid v_k are the state
    before the last cycle times the ``p`` column (pp, qp) of M(h_n, k).
    """
    n = spec.length
    if n < 2:
        raise SpecError("vertex deletion on the last cycle requires n >= 2")
    h = spec.cycle_sizes[-1]
    if not 1 <= k <= h - 1:
        raise SpecError(f"deleted position {k} outside 1..{h - 1}")
    pp, _, qp, _ = _step_matrix(h, k)
    return _check_indpoly(_scan_times(spec, pp, qp), spec.num_vertices - 1)


def walk_chains(
    cycle_sizes: Sequence[int], dedupe_reversal: bool = False, first: int | None = None
) -> Iterator[tuple[tuple[int, ...], UniPoly, tuple[UniPoly, ...]]]:
    """Every canonical chain over a size list, closed by the transfer scan.

    Yields ``(positions, i(A), (i(A - v_1), ..., i(A - v_m)))`` with
    m = floor(h_n/2), for the chains ``enumerate_specs`` yields, in its order
    and with its reversal dedupe.  The walk keeps the state after each
    prefix of the current chain.  In lexicographic order the next chain
    changes only a suffix of the positions, so only that suffix is scanned
    again: a prefix shared by many chains is scanned once.  ``first``
    restricts the walk to the chains whose first internal position is
    ``first``, which lets a sweep split the chains between processes.
    """
    ones = all_ones_spec(cycle_sizes)
    sizes, num_vertices = ones.cycle_sizes, ones.num_vertices
    n, h_last = len(sizes), sizes[-1]
    internal = sizes[1 : n - 1]
    # states[d]: the state after the first cycle and d internal ones, or the
    # lone entry vertex when n = 1.
    states = [_START if n == 1 else row_times(_START, _step_matrix(sizes[0], 1))]
    previous: tuple[int, ...] = ()
    for positions in position_sequences(sizes, dedupe_reversal, first):
        d = 0
        while d < len(previous) and previous[d] == positions[d]:
            d += 1
        del states[d + 1 :]
        for j in range(d, len(internal)):
            states.append(row_times(states[j], _step_matrix(internal[j], positions[j])))
        previous = positions
        yield (positions, *_close(states[-1], h_last, num_vertices, h_last // 2))
