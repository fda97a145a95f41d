"""Dominance checks on last-cycle deletions and extremality sweeps.

The library's central empirical facts: deleting the vertex next to the cut
vertex (position 1) of the last cycle yields the coefficientwise-smallest
independence polynomial among canonical deletions, deleting position 2 the
largest; and across all chains with a fixed size list, the all-ones (ortho)
position sequence minimizes the total count of independent sets while the
all-twos (meta) sequence maximizes it.  Everything here verifies those claims
exhaustively on concrete inputs.  ``PropertyResult`` is the one result type
of every check here and in ``verification``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Sequence, TextIO

from .chain_model import ChainSpec, SpecError, all_ones_spec, count_specs
from .engine import MEMO_VERTEX_CAP, refuse_past, walk_chains
from .polynomial import Dominance, UniPoly, dominance


#: Most chains one sweep may cover, 8^11.  On a 2-core VM an 8^10 sweep
#: (65,536 chains) took 29 s and peaked at 35 MB, and an 8^11 sweep 138 s
#: and 93 MB: the report is written as it is rendered, so time sets the cap.
SWEEP_CAP = 262_144


@dataclass
class PropertyResult:
    """Outcome of one checked property over any number of cases.

    Counts the cases checked and the vacuous ones (nothing to check), and
    keeps the first counterexample.  status is "fail" once a case fails,
    "pass" once a case is checked, and "vacuous" otherwise; "degenerate"
    marks a property whose comparison set is trivial.
    """

    name: str
    detail: str = ""
    checked: int = 0
    counterexample: dict | None = None
    vacuous: int = 0
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        if self.counterexample is not None:
            return "fail"
        if self.checked:
            return "pass"
        return "degenerate" if self.degenerate else "vacuous"

    def check(self, ok: bool, counterexample_factory) -> None:
        self.checked += 1
        if not ok and self.counterexample is None:
            self.counterexample = counterexample_factory()

    def add(self, later: PropertyResult) -> None:
        """Fold in the tally of a later share of this property's cases."""
        self.checked += later.checked
        self.vacuous += later.vacuous
        if self.counterexample is None and later.counterexample is not None:
            self.counterexample = later.counterexample
            self.detail = later.detail

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "detail": self.detail,
            "counterexample": self.counterexample,
        }


def tally_deletions(
    results: Sequence[PropertyResult],
    sizes: tuple[int, ...],
    positions: tuple[int, ...],
    deletions: Sequence[UniPoly],
) -> None:
    """Judge one chain's last-cycle deletions by the three deletion lemmas.

    ``deletions`` holds i(A - v_k) for the canonical positions k = 1..top,
    top = floor(h_n/2), in k order, as ``walk_chains`` yields them.  Each
    lemma is a list of position pairs (a, b), where a must lie strictly
    below b; ``results`` holds the lemmas' results in this order:

    - ortho_deletion_min: (1, k) for k in 2..top, coefficientwise;
    - meta_deletion_max: (k, 2) for k in 3..top, coefficientwise;
    - psi_deletion_ordering: both lists, on the total counts.

    A chain of one cycle, and a lemma with no pairs, count the chain as
    vacuous; any other chain counts as checked.
    The first failing pair of a result with no counterexample yet becomes
    its counterexample, and its reason the result's detail.
    """
    top = len(deletions)
    ortho = [(1, k) for k in range(2, top + 1)]
    meta = [(k, 2) for k in range(3, top + 1)]
    psi = [p.eval_at_one() for p in deletions]

    def strictly_below(a: int, b: int) -> bool:
        return dominance(deletions[a - 1], deletions[b - 1]) is Dominance.STRICTLY_DOMINATED

    def psi_below(a: int, b: int) -> bool:
        return psi[a - 1] < psi[b - 1]

    lemmas = (
        (ortho, strictly_below, "position {} not strictly below position {}"),
        (meta, strictly_below, "position {} not strictly below position {}"),
        (ortho + meta, psi_below, "psi at position {} not below position {}"),
    )
    for result, (pairs, below, reason) in zip(results, lemmas):
        if len(sizes) < 2 or not pairs:
            result.vacuous += 1
            continue
        result.checked += 1
        if result.counterexample is not None:
            continue
        for a, b in pairs:
            if not below(a, b):
                result.detail = reason.format(a, b)
                result.counterexample = {
                    "spec": ChainSpec(sizes, positions).to_text(),
                    "k": b if a == 1 else a,
                    "poly_a": deletions[a - 1].to_coeff_strings(),
                    "poly_b": deletions[b - 1].to_coeff_strings(),
                }
                break


# -- sweeps ------------------------------------------------------------------


@dataclass(slots=True)
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
    verdicts: dict[str, PropertyResult]

    @property
    def all_ok(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    @property
    def ties(self) -> list[list[SweepEntry]]:
        """The groups of two or more entries with equal psi, by psi, each in entry order."""
        by_psi = sorted(self.entries, key=lambda e: e.psi)
        groups = (list(group) for _, group in itertools.groupby(by_psi, key=lambda e: e.psi))
        return [group for group in groups if len(group) > 1]

    def to_json(self) -> dict:
        """The report as JSON values.

        ``entries`` and ``ties`` are iterators that build each item as it is
        read, so that a writer can render a report of any length one item at
        a time.
        """
        return {
            "cycle_sizes": list(self.cycle_sizes),
            "count": len(self.entries),
            "entries": map(SweepEntry.to_json, self.entries),
            "min": self.min_entry.to_json(),
            "max": self.max_entry.to_json(),
            "verdicts": {
                name: {"status": v.status, "detail": v.detail, "counterexample": v.counterexample}
                for name, v in self.verdicts.items()
            },
            "ties": (
                {"psi": str(group[0].psi), "positions": [list(e.positions) for e in group]}
                for group in self.ties
            ),
        }

    def write_csv(self, fh: TextIO) -> None:
        """Write one header row and one row per entry to ``fh``."""
        import csv  # here, so that only a CSV report pays for the import

        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["positions", "psi", "alpha", "mis_count"])
        for e in self.entries:
            writer.writerow([",".join(map(str, e.positions)), e.psi, e.alpha, e.mis_count])


#: The sweep's names for the three deletion lemmas, in ``tally_deletions`` order.
_DELETION_VERDICTS = ("deletion_min_at_ortho", "deletion_max_at_meta", "psi_deletion_ordering")


def _sweep_subtree(
    sizes: tuple[int, ...], dedupe_reversal: bool, first: int | None
) -> tuple[list[SweepEntry], list[PropertyResult]]:
    entries = []
    lemmas = [PropertyResult(name) for name in _DELETION_VERDICTS]
    for positions, poly, deletions in walk_chains(sizes, dedupe_reversal, first):
        deg, lead = poly.degree_and_leading()
        entries.append(SweepEntry(positions, poly.eval_at_one(), deg, lead))
        tally_deletions(lemmas, sizes, positions, deletions)
    return entries, lemmas


def _fold_subtrees(
    parts: Sequence[tuple[list[SweepEntry], list[PropertyResult]]],
) -> tuple[list[SweepEntry], list[PropertyResult]]:
    """Join the subtrees' entries and lemma tallies, in position order.

    The counts add up, and the earliest subtree's counterexample wins, so the
    result is the one a single walk over every chain gives.
    """
    entries = []
    lemmas = [PropertyResult(name) for name in _DELETION_VERDICTS]
    for part_entries, part_lemmas in parts:
        entries.extend(part_entries)
        for lemma, part in zip(lemmas, part_lemmas):
            lemma.add(part)
    for lemma in lemmas:
        if lemma.passed:
            chains = lemma.checked + lemma.vacuous
            if not lemma.checked:
                lemma.detail = f"nothing to check across {chains} chain(s)"
            elif lemma.vacuous:
                lemma.detail = f"{lemma.checked} of {chains} chain(s) checked, rest vacuous"
            else:
                lemma.detail = f"{lemma.checked} of {chains} chain(s) checked"
    return entries, lemmas


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

    The chains come from one walk of the position sequences.  With ``jobs`` > 1
    the walk is split at the first internal position, one subtree per task,
    over at most ``jobs`` processes, one per subtree and one per CPU.  More
    than ``SWEEP_CAP`` chains, or chains past ``MEMO_VERTEX_CAP`` vertices,
    are refused before any work starts.
    """
    if jobs < 1:
        raise SpecError(f"jobs must be at least 1, got {jobs}")
    sizes = tuple(cycle_sizes)
    refuse_past(count_specs(sizes), SWEEP_CAP, "sweep over", "chains")
    refuse_past(all_ones_spec(sizes).num_vertices, MEMO_VERTEX_CAP, "sweep over chains of", "vertices")
    subtrees = sizes[1] // 2 if len(sizes) >= 3 else 1
    workers = min(jobs, subtrees, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # here, so that only a parallel sweep pays for the import

        tasks = [(sizes, dedupe_reversal, k) for k in range(1, subtrees + 1)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_sweep_subtree, tasks)
    else:
        parts = [_sweep_subtree(sizes, dedupe_reversal, None)]

    entries, lemmas = _fold_subtrees(parts)
    verdicts = {lemma.name: lemma for lemma in lemmas}
    min_entry = min(entries, key=lambda e: e.psi)
    max_entry = max(entries, key=lambda e: e.psi)
    verdicts["extremality"] = _extremality_verdict(sizes, entries)
    return SweepReport(sizes, entries, min_entry, max_entry, verdicts)


def _extremality_verdict(
    sizes: tuple[int, ...], entries: list[SweepEntry]
) -> PropertyResult:
    if len(entries) == 1:
        return PropertyResult(
            "extremality", "only one canonical chain for these sizes", degenerate=True
        )
    internal = sizes[1 : len(sizes) - 1]
    all_ones = tuple(1 for _ in internal)
    all_twos = tuple(2 for _ in internal) if all(h >= 4 for h in internal) else None

    def failure(detail: str, psi: int, at: list[SweepEntry]) -> PropertyResult:
        counterexample = {
            "cycle_sizes": list(sizes),
            "psi": str(psi),
            "positions": [list(e.positions) for e in at],
        }
        return PropertyResult("extremality", detail, 1, counterexample)

    min_psi = min(e.psi for e in entries)
    at_min = [e for e in entries if e.psi == min_psi]
    if len(at_min) > 1 or at_min[0].positions != all_ones:
        return failure("minimum is not uniquely at the all-ones sequence", min_psi, at_min)
    if all_twos is None:
        return PropertyResult(
            "extremality", "minimum uniquely at all-ones; no all-twos chain for these sizes", 1
        )
    max_psi = max(e.psi for e in entries)
    at_max = [e for e in entries if e.psi == max_psi]
    if len(at_max) > 1 or at_max[0].positions != all_twos:
        return failure("maximum is not uniquely at the all-twos sequence", max_psi, at_max)
    return PropertyResult(
        "extremality", "minimum uniquely at all-ones, maximum uniquely at all-twos", 1
    )
