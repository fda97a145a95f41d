"""Exhaustive property suites over ranges of cycle sizes and chain lengths.

Three suites, mirroring the CLI's ``verify`` subcommand:

- ``verify_engines``: the three evaluators agree coefficient for
  coefficient on every canonical chain in range, plus the structural
  invariants that come cheap in the same pass (unit constant term, vertex
  count in the linear term, reversal and mirror invariance, the vertex
  deletion identity, prefix consistency of the transfer scan).
- ``verify_recurrences``: closed forms and recurrences reproduce the engine,
  and the degree/leading-coefficient formulas match.
- ``verify_dominance``: the deletion dominance orderings and the psi
  ordering hold for every canonical chain in range.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .chain_model import (
    ChainSpec,
    LabeledGraph,
    VertexLabel,
    build,
    enumerate_specs,
    reversed_spec,
)
from .closed_forms import (
    alpha_meta,
    alpha_ortho,
    count_mis_meta,
    count_mis_ortho,
    cycle_poly,
    meta_poly,
    meta_recurrence_coeffs,
    ortho_poly,
    path_poly,
    psi_path,
)
from .engine import (
    BRUTE_FORCE_CAP,
    indpoly_bruteforce,
    indpoly_chain,
    indpoly_chain_minus_last_vertex,
    indpoly_recursive,
    transfer_state,
    walk_chains,
)
from .extremal import PropertyResult, tally_deletions
from .kernels import subset_counter
from .polynomial import UniPoly

#: Largest graph, in vertices, whose vertex deletion identity is checked.
DELETION_IDENTITY_CAP = 20


def size_lists(
    h_values: Sequence[int], n_values: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Every tuple of cycle sizes drawn from h_values, one per length in n_values."""
    for n in n_values:
        if n < 1:
            continue
        yield from itertools.product(sorted(h_values), repeat=n)


def all_specs(
    h_values: Sequence[int], n_values: Sequence[int]
) -> Iterator[ChainSpec]:
    for sizes in size_lists(h_values, n_values):
        yield from enumerate_specs(sizes)


def count_chains(h_values: Sequence[int], n_values: range) -> int:
    """How many chains ``all_specs`` yields, found without enumerating.

    One cycle gives |H| chains.  n >= 2 cycles give |H|^2 * S^(n-2), with
    S the sum of floor(h/2) over H: the two end cycles take any size, and
    each internal cycle any size h with any of its floor(h/2) positions.
    ``n_values`` is a range of step 1, so the sum over n >= 2 is a
    geometric series, taken in closed form: a few big-int operations
    whatever the length of the range.
    """
    m = len(h_values)
    s = sum(h // 2 for h in h_values)
    lo, hi = max(n_values.start, 1), n_values.stop - 1
    count = m if lo == 1 and hi >= 1 else 0
    lo = max(lo, 2)
    if lo <= hi:
        # sum of s^(n-2) over n = lo..hi
        series = hi - lo + 1 if s == 1 else (s ** (hi - 1) - s ** (lo - 2)) // (s - 1)
        count += m * m * series
    return count


# -- engines ------------------------------------------------------------------


def verify_engines(
    h_values: Sequence[int],
    n_values: Sequence[int],
) -> list[PropertyResult]:
    agreement = PropertyResult("engine_agreement")
    counts = PropertyResult("unit_and_vertex_counts")
    reversal = PropertyResult("reversal_invariance")
    mirror = PropertyResult("mirror_deletion_symmetry")
    prefix = PropertyResult("transfer_prefix_consistency")
    identity = PropertyResult(
        "vertex_deletion_identity", f"graphs up to {DELETION_IDENTITY_CAP} vertices"
    )

    for spec in all_specs(h_values, n_values):
        g = build(spec)
        nv = g.num_vertices
        chain = indpoly_chain(spec)
        rec = indpoly_recursive(g)
        if nv <= BRUTE_FORCE_CAP:
            brute = indpoly_bruteforce(g)
            ok = chain == rec == brute
        else:
            brute = None
            ok = chain == rec
        agreement.check(
            ok,
            lambda: {
                "spec": spec.to_text(),
                "transfer": chain.to_coeff_strings(),
                "recursive": rec.to_coeff_strings(),
                "bruteforce": brute.to_coeff_strings() if brute else None,
            },
        )
        counts.check(
            chain.coefficient(0) == 1 and chain.coefficient(1) == nv,
            lambda: {"spec": spec.to_text(), "poly": chain.to_coeff_strings()},
        )
        reversal.check(
            indpoly_chain(reversed_spec(spec)) == chain,
            lambda: {"spec": spec.to_text()},
        )
        n = spec.length
        if n >= 2:
            h = spec.cycle_sizes[-1]
            for k in range(1, h // 2 + 1):
                mirror.check(
                    indpoly_chain_minus_last_vertex(spec, k)
                    == indpoly_chain_minus_last_vertex(spec, h - k),
                    lambda: {"spec": spec.to_text(), "k": k},
                )
            for j in range(1, n):
                state = transfer_state(spec, j)
                head = ChainSpec(
                    spec.cycle_sizes[:j], spec.positions[: max(j - 2, 0)]
                )
                prefix.check(
                    state.q.coefficient(0) == 0
                    and state.p + state.q == indpoly_chain(head),
                    lambda: {"spec": spec.to_text(), "through_cycle": j},
                )
        if nv <= DELETION_IDENTITY_CAP:
            _check_deletion_identity(g, spec, identity)

    return [agreement, counts, reversal, mirror, prefix, identity]


def _check_deletion_identity(
    g: LabeledGraph, spec: ChainSpec, result: PropertyResult
) -> None:
    """i(G) = i(G - v) + x * i(G - N[v]) and psi strictly drops per vertex.

    All 2V + 1 subsets are counted over one memo; every vertex but the lowest
    checks that memo against a branching order the kernel does not use.
    """
    masks = g.adjacency_masks()
    count = subset_counter(masks)
    full = (1 << g.num_vertices) - 1
    whole = UniPoly(count(full))
    psi = whole.eval_at_one()
    for v in range(g.num_vertices):
        without_v = UniPoly(count(full & ~(1 << v)))
        without_nbhd = UniPoly(count(full & ~(masks[v] | 1 << v)))
        ok = (
            whole == without_v + without_nbhd.shift(1)
            and without_v.eval_at_one() < psi
        )
        result.check(ok, lambda: {"spec": spec.to_text(), "vertex": v})


# -- recurrences ---------------------------------------------------------------


def _path_graph(n: int) -> LabeledGraph:
    return LabeledGraph(
        n, [(i, i + 1) for i in range(n - 1)], {VertexLabel(1, i + 1): i for i in range(n)}
    )


def _ones(h: int, n: int) -> ChainSpec:
    return ChainSpec((h,) * n, (1,) * max(n - 2, 0))


def _twos(h: int, n: int) -> ChainSpec:
    return ChainSpec((h,) * n, (2,) * max(n - 2, 0))


def verify_recurrences(
    h_values: Sequence[int], n_values: Sequence[int]
) -> list[PropertyResult]:
    formulas = PropertyResult(
        "path_cycle_formulas", "paths to 18 vertices, cycles 3..18, against brute force"
    )
    for n in range(0, 19):
        formulas.check(
            path_poly(n) == indpoly_bruteforce(_path_graph(n)),
            lambda: {"family": "path", "n": n},
        )
    for n in range(3, 19):
        formulas.check(
            cycle_poly(n) == indpoly_bruteforce(build(ChainSpec((n,), ()))),
            lambda: {"family": "cycle", "n": n},
        )

    fib = PropertyResult("psi_path_fibonacci_lucas", "n = 1..50")
    for n in range(1, 51):
        fib.check(
            psi_path(n) == path_poly(n).eval_at_one(), lambda: {"n": n}
        )

    splits = PropertyResult("short_chain_forms")
    ortho_match = PropertyResult("ortho_matches_engine")
    meta_match = PropertyResult("meta_matches_engine", "h >= 4 only")
    ortho_rec = PropertyResult("ortho_recurrence_on_engine")
    meta_rec = PropertyResult("meta_recurrence_on_engine")
    extremes = PropertyResult("alpha_and_mis_formulas")

    hs = sorted(set(h_values))
    ns = sorted(set(n_values))
    for h in hs:
        splits.check(
            cycle_poly(h) == path_poly(h - 3).shift(1) + path_poly(h - 1),
            lambda: {"h": h, "relation": "cycle split"},
        )
        side, end = path_poly(h - 3), path_poly(h - 1)
        two = (side * side).shift(1) + end * end
        splits.check(
            two == indpoly_chain(_ones(h, 2)),
            lambda: {"h": h, "relation": "length-2 chain"},
        )

        engine_ones = {n: indpoly_chain(_ones(h, n)) for n in ns if n >= 1}
        engine_twos = (
            {n: indpoly_chain(_twos(h, n)) for n in ns if n >= 1} if h >= 4 else {}
        )

        for n in ns:
            if n == 0:
                ortho_match.check(
                    ortho_poly(h, 0) == UniPoly([1, 1]), lambda: {"h": h, "n": 0}
                )
                if h >= 4:
                    meta_match.check(
                        meta_poly(h, 0) == UniPoly([1, 1]), lambda: {"h": h, "n": 0}
                    )
                continue
            ortho_match.check(
                ortho_poly(h, n) == engine_ones[n],
                lambda: {"family": "ortho", "h": h, "n": n},
            )
            if h >= 4:
                meta_match.check(
                    meta_poly(h, n) == engine_twos[n],
                    lambda: {"family": "meta", "h": h, "n": n},
                )
            if n >= 3 and n - 2 in engine_ones:
                bridge = (side * side).shift(1)
                step = path_poly(h - 2)
                ortho_rec.check(
                    engine_ones[n]
                    == bridge * engine_ones[n - 2] + step * engine_ones[n - 1],
                    lambda: {"h": h, "n": n},
                )
                if h >= 4:
                    a, b = meta_recurrence_coeffs(h)
                    meta_rec.check(
                        engine_twos[n]
                        == a * engine_twos[n - 1] - (b * engine_twos[n - 2]).shift(2),
                        lambda: {"h": h, "n": n},
                    )
            deg, lead = engine_ones[n].degree_and_leading()
            ok = deg == alpha_ortho(h, n) and (n < 2 or lead == count_mis_ortho(h, n))
            extremes.check(ok, lambda: {"family": "ortho", "h": h, "n": n})
            if h >= 4:
                deg, lead = engine_twos[n].degree_and_leading()
                ok = deg == alpha_meta(h, n) and (n < 2 or lead == count_mis_meta(h, n))
                extremes.check(ok, lambda: {"family": "meta", "h": h, "n": n})

    return [
        formulas,
        fib,
        splits,
        ortho_match,
        meta_match,
        ortho_rec,
        meta_rec,
        extremes,
    ]


# -- dominance ------------------------------------------------------------------


def verify_dominance(
    h_values: Sequence[int], n_values: Sequence[int]
) -> list[PropertyResult]:
    results = [
        PropertyResult("ortho_deletion_min"),
        PropertyResult("meta_deletion_max"),
        PropertyResult("psi_deletion_ordering"),
    ]
    ns = [n for n in n_values if n >= 2]
    for sizes in size_lists(h_values, ns):
        for positions, _, deletions in walk_chains(sizes):
            tally_deletions(results, sizes, positions, deletions)

    for result in results:
        result.detail = f"{result.vacuous} vacuous chain(s) skipped"
    return results
