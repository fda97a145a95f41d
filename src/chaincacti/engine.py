"""Three independent evaluators for independence polynomials.

- ``indpoly_bruteforce``: the counting kernel over adjacency bitmasks,
  capped at 32 vertices.  It branches on the lowest-id vertex, memoized on
  the remaining-vertex bitmask, and never splits components.  The oracle the
  other two are measured against.
- ``indpoly_recursive``: the generic deletion identity
  i(G) = i(G - u) + x * i(G - N[u]) on a maximum-degree pivot, with
  component factorization and memoization; works on any graph.
- ``indpoly_chain``: a left-to-right transfer scan that exploits the chain
  structure: a start state times one cached 2x2 polynomial step matrix
  M(h, k) per cycle; linear in the number of cycles.

All three return exact integer-coefficient polynomials and must agree; the
verification module checks that exhaustively at desk scale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .chain_model import ChainSpec, LabeledGraph, SpecError
from .closed_forms import path_poly
from .kernels import count_independent_sets
from .polynomial import ONE, X, UniPoly

#: Hard ceiling for brute-force enumeration.
BRUTE_FORCE_CAP = 32


class VertexCapError(ValueError):
    """A request beyond an engine's reach.

    Raised for brute force past ``BRUTE_FORCE_CAP`` vertices, and for the
    pivot recursion on a graph that needs more nested calls than the
    interpreter's recursion limit allows.
    """


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
    if g.num_vertices > BRUTE_FORCE_CAP:
        raise VertexCapError(
            f"brute force capped at {BRUTE_FORCE_CAP} vertices, got {g.num_vertices}"
        )
    counts = count_independent_sets(g.adjacency_masks())
    return _check_indpoly(UniPoly(counts), g.num_vertices)


def indpoly_recursive(g: LabeledGraph) -> UniPoly:
    """Independence polynomial by pivot recursion with memoization.

    Pivot: a maximum-degree vertex of the current induced subgraph, ties
    broken by smallest id.  Subgraphs are keyed by their surviving-vertex
    bitset; connected components are solved independently and multiplied.
    Coefficients are kept as plain lists internally and boxed once at the end.
    The call depth grows with the graph; a graph that would pass the
    interpreter's recursion limit is refused with a VertexCapError.
    """
    masks = g.adjacency_masks()
    nv = g.num_vertices
    memo: dict[int, list[int]] = {}

    def solve(sub: int) -> list[int]:
        if sub == 0:
            return [1]
        cached = memo.get(sub)
        if cached is not None:
            return cached
        comps = _components(sub, masks)
        if len(comps) > 1:
            result = [1]
            for comp in comps:
                result = _mul(result, solve(comp))
        else:
            v = _pivot(sub, masks)
            bit = 1 << v
            without = solve(sub & ~bit)
            closed = solve(sub & ~(masks[v] | bit))
            result = _add(without, [0] + closed)
        memo[sub] = result
        return result

    try:
        counts = solve((1 << nv) - 1)
    except RecursionError:
        raise VertexCapError(
            f"recursive engine exceeded the recursion limit on {nv} vertices; "
            "use the transfer engine for long chains"
        ) from None
    return _check_indpoly(UniPoly(counts), nv)


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


def _step(state: TransferState, h: int, k: int) -> TransferState:
    # Cross one cycle of size h that is left at position k: state x M(h, k).
    pp, pq, qp, qq = _step_matrix(h, k)
    p, q = state
    return TransferState(p * pp + q * qp, p * pq + q * qq)


@lru_cache(maxsize=4096)
def _scan(spec: ChainSpec, through_cycle: int) -> TransferState:
    # The first cycle is left at position 1, internal cycle j at k_j.
    state = _START
    for h, k in zip(spec.cycle_sizes[:through_cycle], (1, *spec.positions)):
        state = _step(state, h, k)
    return state


def transfer_state(spec: ChainSpec, through_cycle: int) -> TransferState:
    """State after absorbing cycles 1..through_cycle (1 <= through < n).

    The exit vertex is the attachment position on cycle ``through_cycle``:
    position 1 on the first cycle, the spec's position on internal ones.
    Recently scanned prefixes are cached, so the per-position deletion
    queries of the extremal module pay for the scan once per spec.
    """
    n = spec.length
    if not 1 <= through_cycle <= n - 1:
        raise SpecError(f"through_cycle {through_cycle} outside 1..{n - 1}")
    return _scan(spec, through_cycle)


def indpoly_chain(spec: ChainSpec) -> UniPoly:
    """Independence polynomial of a chain cactus by the transfer scan."""
    n = spec.length
    if n < 1:
        raise SpecError("chain engine requires at least one cycle")
    last = _step(_scan(spec, n - 1), spec.cycle_sizes[-1], 1)
    return _check_indpoly(last.p + last.q, spec.num_vertices)


def indpoly_chain_minus_last_vertex(spec: ChainSpec, k: int) -> UniPoly:
    """Independence polynomial of the chain with vertex k of the last cycle removed.

    k runs over 1..h_n - 1 (position h_n is the cut vertex shared with the
    previous cycle).  The sets of the chain that avoid v_k are the ``p``
    half of the scan after the last cycle, left at position k.
    """
    n = spec.length
    if n < 2:
        raise SpecError("vertex deletion on the last cycle requires n >= 2")
    h = spec.cycle_sizes[-1]
    if not 1 <= k <= h - 1:
        raise SpecError(f"deleted position {k} outside 1..{h - 1}")
    last = _step(_scan(spec, n - 1), h, k)
    return _check_indpoly(last.p, spec.num_vertices - 1)
