"""Three independent evaluators for independence polynomials.

- ``indpoly_bruteforce``: the counting kernel over adjacency bitmasks,
  capped at 32 vertices.  It branches on the lowest-id vertex, memoized on
  the remaining-vertex bitmask, and never splits components.  The oracle the
  other two are measured against.
- ``indpoly_recursive``: the generic deletion identity
  i(G) = i(G - u) + x * i(G - N[u]) on a maximum-degree pivot, with
  component factorization and memoization, on an explicit stack; works on
  any graph.
- ``indpoly_chain``: a left-to-right transfer scan that exploits the chain
  structure: a start state times one cached 2x2 polynomial step matrix
  M(h, k) per cycle; linear in the number of cycles.  ``walk_chains`` runs
  the same scan over every chain of a size list, one step per shared prefix.

All three return exact integer-coefficient polynomials and must agree; the
verification module checks that exhaustively at desk scale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .chain_model import ChainSpec, LabeledGraph, SpecError, all_ones_spec
from .closed_forms import path_poly
from .kernels import count_independent_sets
from .polynomial import ONE, X, UniPoly

#: Hard ceiling for brute-force enumeration.
BRUTE_FORCE_CAP = 32


class VertexCapError(ValueError):
    """A request beyond an engine's reach.

    Raised for brute force past ``BRUTE_FORCE_CAP`` vertices and for a sweep
    past ``extremal.SWEEP_CAP`` chains.
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
    The recursion runs on an explicit stack, so the depth of a graph's pivot
    tree is not bounded by the interpreter's recursion limit.
    """
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


def _deletion(state: TransferState, h: int, k: int) -> UniPoly:
    # The p column of the last step: the chain's sets that avoid v_k.  The q
    # column (the sets that take v_k) is not needed, so it is not computed.
    pp, _, qp, _ = _step_matrix(h, k)
    return state.p * pp + state.q * qp


def _close(
    state: TransferState, h: int, num_vertices: int, top: int
) -> tuple[UniPoly, tuple[UniPoly, ...]]:
    # Close a chain whose prefix state before its last cycle (size h) is
    # ``state``: its polynomial and i(A - v_k) for k = 1..top.  The chain's
    # sets either avoid v_1 or take it, so the k = 1 deletion is reused.
    deletions = tuple(
        _check_indpoly(_deletion(state, h, k), num_vertices - 1)
        for k in range(1, top + 1)
    )
    _, pq, _, qq = _step_matrix(h, 1)
    chain = deletions[0] + state.p * pq + state.q * qq
    return _check_indpoly(chain, num_vertices), deletions


def indpoly_chain(spec: ChainSpec) -> UniPoly:
    """Independence polynomial of a chain cactus by the transfer scan."""
    n = spec.length
    if n < 1:
        raise SpecError("chain engine requires at least one cycle")
    return _close(_scan(spec, n - 1), spec.cycle_sizes[-1], spec.num_vertices, 1)[0]


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
    return _check_indpoly(_deletion(_scan(spec, n - 1), h, k), spec.num_vertices - 1)


def walk_chains(
    cycle_sizes: Sequence[int], dedupe_reversal: bool = False, first: int | None = None
) -> Iterator[tuple[tuple[int, ...], UniPoly, tuple[UniPoly, ...]]]:
    """Every canonical chain over a size list, closed by the transfer scan.

    Yields ``(positions, i(A), (i(A - v_1), ..., i(A - v_m)))`` with
    m = floor(h_n/2), for the chains ``enumerate_specs`` yields, in its order
    and with its reversal dedupe.  The walk is depth first over the trie of
    internal positions: each node's state is one step from its parent's, so
    a prefix shared by many chains is scanned once.  It keeps an explicit
    stack, so chain length is not bounded by the recursion limit.  ``first``
    restricts the walk to the chains whose first internal position is
    ``first``, which lets a sweep split the trie between processes.
    """
    ones = all_ones_spec(cycle_sizes)
    sizes, num_vertices = ones.cycle_sizes, ones.num_vertices
    n, h_last = len(sizes), sizes[-1]
    internal = sizes[1 : n - 1]
    palindrome = dedupe_reversal and sizes == sizes[::-1]
    if first is not None and not (internal and 1 <= first <= internal[0] // 2):
        raise SpecError(f"first position {first} outside the size list's range")
    path = [0] * len(internal)
    # (depth, position on cycle depth + 1, parent state); the root is the
    # state after the first cycle, or the lone entry vertex when n = 1.
    stack = [(0, 0, _START if n == 1 else _step(_START, sizes[0], 1))]
    while stack:
        depth, k, state = stack.pop()
        if depth:
            path[depth - 1] = k
            state = _step(state, internal[depth - 1], k)
        if depth < len(internal):
            # Pushed largest first, so the children pop in lexicographic order.
            children = range(internal[depth] // 2, 0, -1)
            if depth == 0 and first is not None:
                children = (first,)
            stack.extend((depth + 1, pos, state) for pos in children)
            continue
        positions = tuple(path)
        if palindrome and positions[::-1] < positions:
            continue
        yield (positions, *_close(state, h_last, num_vertices, h_last // 2))
