"""Dominance checks on last-cycle deletions and extremality sweeps.

The library's central empirical facts: deleting the vertex next to the cut
vertex (position 1) of the last cycle yields the coefficientwise-smallest
independence polynomial among canonical deletions, deleting position 2 the
largest; and across all chains with a fixed size list, the all-ones (ortho)
position sequence minimizes the total count of independent sets while the
all-twos (meta) sequence maximizes it.  Everything here verifies those claims
exhaustively on concrete inputs and reports structured verdicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from .chain_model import ChainSpec, SpecError, count_specs
from .engine import VertexCapError, indpoly_chain_minus_last_vertex, walk_chains
from .polynomial import Dominance, UniPoly, dominance


#: Most chains one sweep may cover, 8^11: an 8^10 sweep (65,536 chains)
#: peaked at 274 MB, so this keeps a sweep near 1 GB.
SWEEP_CAP = 262_144


@dataclass
class Verdict:
    """Outcome of one verified property.

    status is "pass", "fail", "vacuous" (nothing to check in the canonical
    range), or "degenerate" (the comparison set is trivial).  Failures carry
    a counterexample with the offending spec, position, and both polynomials.
    """

    status: str
    detail: str = ""
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "detail": self.detail,
            "counterexample": self.counterexample,
        }


def _poly_pair(spec: ChainSpec, k: int, a: UniPoly, b: UniPoly) -> dict:
    return {
        "spec": spec.to_text(),
        "k": k,
        "poly_a": a.to_coeff_strings(),
        "poly_b": b.to_coeff_strings(),
    }


def deletion_verdicts(
    spec: ChainSpec, polys: Sequence[UniPoly] | None = None
) -> tuple[Verdict, Verdict, Verdict]:
    """The three last-cycle deletion verdicts of one chain.

    Judges i(A - v_k) for the canonical positions k in 1..floor(h_n/2), in
    this order: position 1 is the strict minimum, position 2 the strict
    maximum of the deeper positions, and the psi ordering.  ``polys`` holds
    those polynomials in k order when the caller has them already (the chain
    walk does); otherwise each is computed once.  Requires n >= 2.
    """
    if spec.length < 2:
        raise SpecError("deletion comparisons require n >= 2")
    if polys is None:
        h = spec.cycle_sizes[-1]
        by_k = {k: indpoly_chain_minus_last_vertex(spec, k) for k in range(1, h // 2 + 1)}
    else:
        by_k = dict(enumerate(polys, start=1))
    return (
        _ortho_deletion_min(spec, by_k),
        _meta_deletion_max(spec, by_k),
        _psi_deletion_ordering(spec, by_k),
    )


def _ortho_deletion_min(spec: ChainSpec, polys: dict[int, UniPoly]) -> Verdict:
    """Deleting position 1 is strictly dominated by every other deletion.

    Checks i(A - v_1) strictly below i(A - v_k) coefficientwise for each
    k in 2..floor(h_n/2); vacuous when that range is empty (h_n = 3).
    """
    top = max(polys)
    if top < 2:
        return Verdict("vacuous", "no canonical position beyond 1")
    for k in range(2, top + 1):
        if dominance(polys[1], polys[k]) is not Dominance.STRICTLY_DOMINATED:
            return Verdict(
                "fail",
                f"position 1 not strictly below position {k}",
                _poly_pair(spec, k, polys[1], polys[k]),
            )
    return Verdict("pass", f"checked k in 2..{top}")


def _meta_deletion_max(spec: ChainSpec, polys: dict[int, UniPoly]) -> Verdict:
    """Deleting position 2 strictly dominates every deeper deletion.

    Checks i(A - v_k) strictly below i(A - v_2) coefficientwise for each
    k in 3..floor(h_n/2); vacuous when h_n < 6.
    """
    top = max(polys)
    if top < 3:
        return Verdict("vacuous", "no canonical position beyond 2")
    for k in range(3, top + 1):
        if dominance(polys[k], polys[2]) is not Dominance.STRICTLY_DOMINATED:
            return Verdict(
                "fail",
                f"position {k} not strictly below position 2",
                _poly_pair(spec, k, polys[k], polys[2]),
            )
    return Verdict("pass", f"checked k in 3..{top}")


def _psi_deletion_ordering(spec: ChainSpec, polys: dict[int, UniPoly]) -> Verdict:
    """Total counts after deletion are ordered: position 1 < others < position 2."""
    top = max(polys)
    if top < 2:
        return Verdict("vacuous", "only one canonical position")
    psi = {k: p.eval_at_one() for k, p in polys.items()}
    for k in range(2, top + 1):
        if not psi[1] < psi[k]:
            return Verdict(
                "fail",
                f"psi at position 1 not below position {k}",
                _poly_pair(spec, k, polys[1], polys[k]),
            )
    for k in range(3, top + 1):
        if not psi[k] < psi[2]:
            return Verdict(
                "fail",
                f"psi at position {k} not below position 2",
                _poly_pair(spec, k, polys[k], polys[2]),
            )
    return Verdict("pass", f"checked k in 2..{top}")


# -- sweeps ------------------------------------------------------------------


@dataclass
class SweepEntry:
    positions: tuple[int, ...]
    psi: int
    alpha: int
    mis_count: int

    def to_json(self) -> dict:
        return {
            "positions": list(self.positions),
            "psi": str(self.psi),
            "alpha": self.alpha,
            "mis_count": str(self.mis_count),
        }


@dataclass
class SweepReport:
    cycle_sizes: tuple[int, ...]
    entries: list[SweepEntry]
    min_entry: SweepEntry
    max_entry: SweepEntry
    verdicts: dict[str, Verdict]
    ties: list[dict] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {
            "cycle_sizes": list(self.cycle_sizes),
            "count": len(self.entries),
            "entries": [e.to_json() for e in self.entries],
            "min": self.min_entry.to_json(),
            "max": self.max_entry.to_json(),
            "verdicts": {name: v.to_json() for name, v in self.verdicts.items()},
            "ties": self.ties,
        }

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["positions", "psi", "alpha", "mis_count"])
        for e in self.entries:
            writer.writerow([",".join(map(str, e.positions)), e.psi, e.alpha, e.mis_count])
        return buf.getvalue()


def _sweep_subtree(
    sizes: tuple[int, ...], dedupe_reversal: bool, first: int | None
) -> list[tuple[SweepEntry, tuple[Verdict, ...]]]:
    results = []
    for positions, poly, deletions in walk_chains(sizes, dedupe_reversal, first):
        deg, lead = poly.degree_and_leading()
        entry = SweepEntry(positions, poly.eval_at_one(), deg, lead)
        if len(sizes) >= 2:
            checks = deletion_verdicts(ChainSpec(sizes, positions), deletions)
        else:
            vac = Verdict("vacuous", "requires n >= 2")
            checks = (vac, vac, vac)
        results.append((entry, checks))
    return results


def _merge(verdicts: Sequence[Verdict]) -> Verdict:
    for v in verdicts:
        if not v.ok:
            return v
    passed = sum(1 for v in verdicts if v.status == "pass")
    if passed == 0:
        return Verdict("vacuous", f"nothing to check across {len(verdicts)} chain(s)")
    return Verdict("pass", f"{passed} of {len(verdicts)} chain(s) checked, rest vacuous")


def sweep(
    cycle_sizes: Sequence[int],
    dedupe_reversal: bool = False,
    jobs: int = 1,
) -> SweepReport:
    """Evaluate every canonical position sequence over a fixed size list.

    Each entry records (positions, psi, alpha, number of maximum independent
    sets) from the transfer engine.  Verdicts aggregate the deletion
    dominance checks over all enumerated chains and test that the all-ones
    sequence is the unique strict psi-minimum and the all-twos sequence (when
    it exists) the unique strict maximum.

    The chains come from one walk of the position trie.  With ``jobs`` > 1
    the walk is split at the first internal position, one subtree per task,
    over at most ``jobs`` processes, one per subtree and one per CPU.  More
    than ``SWEEP_CAP`` chains are refused before any work starts.
    """
    if jobs < 1:
        raise SpecError(f"jobs must be at least 1, got {jobs}")
    sizes = tuple(cycle_sizes)
    count = count_specs(sizes)
    if count > SWEEP_CAP:
        raise VertexCapError(
            f"sweep over {count} chains exceeds the cap of {SWEEP_CAP} chains"
        )
    subtrees = sizes[1] // 2 if len(sizes) >= 3 else 1
    workers = min(jobs, subtrees, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # here, so that only a parallel sweep pays for the import

        tasks = [(sizes, dedupe_reversal, k) for k in range(1, subtrees + 1)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_sweep_subtree, tasks)
        results = [r for part in parts for r in part]
    else:
        results = _sweep_subtree(sizes, dedupe_reversal, None)

    entries = [entry for entry, _ in results]
    verdicts = {
        "deletion_min_at_ortho": _merge([c[0] for _, c in results]),
        "deletion_max_at_meta": _merge([c[1] for _, c in results]),
        "psi_deletion_ordering": _merge([c[2] for _, c in results]),
    }

    min_entry = min(entries, key=lambda e: e.psi)
    max_entry = max(entries, key=lambda e: e.psi)
    verdicts["extremality"] = _extremality_verdict(sizes, entries)

    by_psi: dict[int, list[SweepEntry]] = {}
    for e in entries:
        by_psi.setdefault(e.psi, []).append(e)
    ties = [
        {"psi": str(psi), "positions": [list(e.positions) for e in group]}
        for psi, group in sorted(by_psi.items())
        if len(group) > 1
    ]

    return SweepReport(sizes, entries, min_entry, max_entry, verdicts, ties)


def _extremality_verdict(
    sizes: tuple[int, ...], entries: list[SweepEntry]
) -> Verdict:
    if len(entries) == 1:
        return Verdict("degenerate", "only one canonical chain for these sizes")
    internal = sizes[1 : len(sizes) - 1]
    all_ones = tuple(1 for _ in internal)
    all_twos = tuple(2 for _ in internal) if all(h >= 4 for h in internal) else None

    min_psi = min(e.psi for e in entries)
    at_min = [e for e in entries if e.psi == min_psi]
    if len(at_min) > 1 or at_min[0].positions != all_ones:
        return Verdict(
            "fail",
            "minimum is not uniquely at the all-ones sequence",
            {
                "cycle_sizes": list(sizes),
                "psi": str(min_psi),
                "positions": [list(e.positions) for e in at_min],
            },
        )
    if all_twos is None:
        return Verdict(
            "pass",
            "minimum uniquely at all-ones; no all-twos chain for these sizes",
        )
    max_psi = max(e.psi for e in entries)
    at_max = [e for e in entries if e.psi == max_psi]
    if len(at_max) > 1 or at_max[0].positions != all_twos:
        return Verdict(
            "fail",
            "maximum is not uniquely at the all-twos sequence",
            {
                "cycle_sizes": list(sizes),
                "psi": str(max_psi),
                "positions": [list(e.positions) for e in at_max],
            },
        )
    return Verdict("pass", "minimum uniquely at all-ones, maximum uniquely at all-twos")
