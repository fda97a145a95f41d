"""Dominance verdicts and position sweeps."""

import io
import json
import time
from collections.abc import Iterator

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import chaincacti.extremal as extremal
from chaincacti.chain_model import ChainSpec, SpecError, count_specs, parse_spec
from chaincacti.closed_forms import ortho_poly
from chaincacti.engine import VertexCapError, indpoly_chain_minus_last_vertex
from chaincacti.extremal import (
    SWEEP_CAP,
    PropertyResult,
    SweepEntry,
    _extremality_verdict,
    _fold_subtrees,
    tally_deletions,
    sweep,
)
from chaincacti.polynomial import UniPoly

LEMMAS = ("ortho_deletion_min", "meta_deletion_max", "psi_deletion_ordering")


def _judge(sizes, positions, deletions):
    """The three lemma results of one chain's deletions, given in k order."""
    results = [PropertyResult(name) for name in LEMMAS]
    tally_deletions(results, sizes, positions, deletions)
    return results


def _judge_spec(spec):
    h = spec.cycle_sizes[-1]
    deletions = [indpoly_chain_minus_last_vertex(spec, k) for k in range(1, h // 2 + 1)]
    return _judge(spec.cycle_sizes, spec.positions, deletions)


def test_deletion_verdicts_on_two_hexagons():
    verdicts = _judge_spec(parse_spec("6,6/"))
    assert [v.status for v in verdicts] == ["pass", "pass", "pass"]


def test_deletion_verdicts_pass_across_small_sizes():
    for sizes in [(4, 7), (8, 8), (5, 6, 7), (6, 4, 8)]:
        spec = ChainSpec(sizes, tuple(1 for _ in sizes[1:-1]))
        assert all(v.passed for v in _judge_spec(spec))


def test_deletion_verdicts_vacuous_cases():
    # triangle last cycle: position 1 is the only canonical deletion
    ortho, meta, psi = _judge_spec(parse_spec("6,3/"))
    assert ortho.status == "vacuous"
    assert (ortho.checked, ortho.vacuous) == (0, 1)
    assert meta.status == "vacuous"
    assert psi.status == "vacuous"
    # h = 4 or 5 last cycle: nothing deeper than position 2
    for text in ("6,4/", "6,5/"):
        ortho, meta, psi = _judge_spec(parse_spec(text))
        assert meta.status == "vacuous"
        assert ortho.status == psi.status == "pass"


def test_deletion_verdicts_require_two_cycles():
    # a single cycle has no chain to delete from: every chain is vacuous
    for h in (6, 8):
        report = sweep([h])
        for name in ("deletion_min_at_ortho", "deletion_max_at_meta", "psi_deletion_ordering"):
            v = report.verdicts[name]
            assert (v.status, v.checked, v.vacuous) == ("vacuous", 0, 1)
            assert v.detail == "nothing to check across 1 chain(s)"


def _assert_fail(verdict, k, poly_a, poly_b):
    assert verdict.status == "fail"
    assert not verdict.passed
    assert verdict.counterexample == {
        "spec": "8,8",
        "k": k,
        "poly_a": poly_a.to_coeff_strings(),
        "poly_b": poly_b.to_coeff_strings(),
    }


def _judge_dict(polys):
    return _judge((8, 8), (), [polys[k] for k in sorted(polys)])


def test_ortho_deletion_min_fails_when_position_1_not_below():
    polys = {1: UniPoly([1, 3]), 2: UniPoly([1, 4]), 3: UniPoly([1, 2]), 4: UniPoly([1, 5])}
    v = _judge_dict(polys)[0]
    assert "position 1 not strictly below position 3" in v.detail
    _assert_fail(v, 3, polys[1], polys[3])


def test_meta_deletion_max_fails_when_deeper_position_not_below_2():
    polys = {1: UniPoly([1, 1]), 2: UniPoly([1, 4]), 3: UniPoly([1, 3]), 4: UniPoly([2, 3])}
    v = _judge_dict(polys)[1]
    assert "position 4 not strictly below position 2" in v.detail
    _assert_fail(v, 4, polys[4], polys[2])


def test_psi_deletion_ordering_fails_when_out_of_order():
    # psi at position 1 ties position 2
    low = {1: UniPoly([2, 3]), 2: UniPoly([1, 4]), 3: UniPoly([1, 3]), 4: UniPoly([1, 3])}
    v = _judge_dict(low)[2]
    assert "psi at position 1 not below position 2" in v.detail
    _assert_fail(v, 2, low[1], low[2])
    # psi at position 3 above position 2, though the two are coefficientwise incomparable
    high = {1: UniPoly([1, 1]), 2: UniPoly([1, 5]), 3: UniPoly([3, 4]), 4: UniPoly([1, 3])}
    v = _judge_dict(high)[2]
    assert "psi at position 3 not below position 2" in v.detail
    _assert_fail(v, 3, high[3], high[2])


def test_judge_keeps_the_first_failing_chain():
    results = [PropertyResult(name) for name in LEMMAS]
    chains = [
        ((1,), [UniPoly([1, 2]), UniPoly([1, 3])]),
        ((2,), [UniPoly([1, 3]), UniPoly([1, 2])]),
        ((3,), [UniPoly([1, 4]), UniPoly([1, 1])]),
    ]
    for positions, deletions in chains:
        tally_deletions(results, (6, 6, 4), positions, deletions)
    ortho_min, meta_max, psi = results
    # h = 4 last cycle: two canonical deletions, nothing deeper than position 2
    assert (ortho_min.checked, ortho_min.vacuous) == (3, 0)
    assert (meta_max.checked, meta_max.vacuous, meta_max.status) == (0, 3, "vacuous")
    assert ortho_min.counterexample["spec"] == psi.counterexample["spec"] == "6,6,4/2"
    assert ortho_min.counterexample["poly_a"] == ["1", "3"]


def _strictly_below(a, b):
    """Coefficientwise a <= b and a != b, restated on padded coefficient lists."""
    width = max(len(a.coeffs), len(b.coeffs))
    pa = list(a.coeffs) + [0] * (width - len(a.coeffs))
    pb = list(b.coeffs) + [0] * (width - len(b.coeffs))
    return pa != pb and all(x <= y for x, y in zip(pa, pb))


def _restated(deletions):
    """(status, reason, k, a, b) of each lemma, straight from its statement."""
    top = len(deletions)
    d = dict(enumerate(deletions, start=1))
    psi = {k: sum(p.coeffs) for k, p in d.items()}

    def first_failure(pairs, holds):
        for a, b in pairs:
            if not holds(a, b):
                return a, b
        return None

    ortho_pairs = [(1, k) for k in range(2, top + 1)]
    meta_pairs = [(k, 2) for k in range(3, top + 1)]
    outcomes = []
    for pairs, holds, reason in (
        (ortho_pairs, lambda a, b: _strictly_below(d[a], d[b]), "position {} not strictly below position {}"),
        (meta_pairs, lambda a, b: _strictly_below(d[a], d[b]), "position {} not strictly below position {}"),
        (ortho_pairs + meta_pairs, lambda a, b: psi[a] < psi[b], "psi at position {} not below position {}"),
    ):
        if not pairs:
            outcomes.append(("vacuous", None))
            continue
        bad = first_failure(pairs, holds)
        if bad is None:
            outcomes.append(("pass", None))
        else:
            a, b = bad
            outcomes.append(("fail", (reason.format(a, b), b if a == 1 else a, d[a], d[b])))
    return outcomes


_small_polys = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(UniPoly)


@given(deletions=st.lists(_small_polys, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_judge_matches_restated_lemmas(deletions):
    # coefficients 0..3 over at most four terms: ties, equal polynomials and
    # incomparable pairs are all common
    for result, (status, failure) in zip(_judge((9, 12), (), deletions), _restated(deletions)):
        assert result.status == status
        assert (result.checked, result.vacuous) == ((0, 1) if status == "vacuous" else (1, 0))
        if failure is None:
            assert result.counterexample is None
            continue
        reason, k, poly_a, poly_b = failure
        assert result.detail == reason
        assert result.counterexample == {
            "spec": "9,12",
            "k": k,
            "poly_a": poly_a.to_coeff_strings(),
            "poly_b": poly_b.to_coeff_strings(),
        }


def _part(checked, vacuous, failure=None):
    """One subtree's tally of the three lemmas, failing with ``failure`` if given."""
    lemmas = []
    for name in ("deletion_min_at_ortho", "deletion_max_at_meta", "psi_deletion_ordering"):
        lemma = PropertyResult(name, checked=checked, vacuous=vacuous)
        if failure is not None:
            lemma.detail, lemma.counterexample = failure, {"spec": failure}
        lemmas.append(lemma)
    return [SweepEntry((checked,), checked, 1, 1)], lemmas


def test_subtree_fold_adds_counts_and_keeps_the_first_failure():
    parts = [_part(2, 1), _part(3, 0, "first"), _part(1, 4), _part(5, 0, "second")]
    entries, lemmas = _fold_subtrees(parts)
    assert [e.positions for e in entries] == [(2,), (3,), (1,), (5,)]
    for lemma in lemmas:
        assert (lemma.checked, lemma.vacuous) == (11, 5)
        assert lemma.status == "fail"
        assert lemma.detail == "first"
        assert lemma.counterexample == {"spec": "first"}


def test_subtree_fold_vacuous_and_mixed():
    _, lemmas = _fold_subtrees([_part(0, 2), _part(0, 1)])
    assert [v.status for v in lemmas] == ["vacuous"] * 3
    assert lemmas[0].detail == "nothing to check across 3 chain(s)"
    _, lemmas = _fold_subtrees([_part(1, 0), _part(0, 1), _part(1, 0)])
    assert [v.status for v in lemmas] == ["pass"] * 3
    assert lemmas[0].detail == "2 of 3 chain(s) checked, rest vacuous"
    _, lemmas = _fold_subtrees([_part(2, 0), _part(1, 0)])
    assert [v.status for v in lemmas] == ["pass"] * 3
    assert lemmas[0].detail == "3 of 3 chain(s) checked"


def test_extremality_verdict_fails_on_wrong_minimum():
    entries = [
        SweepEntry((1,), 100, 5, 1),
        SweepEntry((2,), 90, 5, 1),
    ]
    v = _extremality_verdict((6, 6, 6), entries)
    assert v.status == "fail"
    assert v.counterexample["positions"] == [[2]]


def test_extremality_verdict_fails_on_tied_minimum():
    entries = [
        SweepEntry((1,), 90, 5, 1),
        SweepEntry((2,), 90, 5, 1),
        SweepEntry((3,), 95, 5, 1),
    ]
    v = _extremality_verdict((6, 6, 6), entries)
    assert v.status == "fail"
    assert len(v.counterexample["positions"]) == 2


def test_extremality_verdict_fails_on_wrong_maximum():
    entries = [
        SweepEntry((1,), 90, 5, 1),
        SweepEntry((2,), 95, 5, 1),
        SweepEntry((3,), 99, 5, 1),
    ]
    v = _extremality_verdict((8, 8, 8), entries)
    assert v.status == "fail"
    assert "maximum" in v.detail


def test_sweep_three_hexagons():
    report = sweep([6, 6, 6])
    assert len(report.entries) == 3
    by_pos = {e.positions: e for e in report.entries}
    assert by_pos[(1,)].psi == 2002
    assert by_pos[(2,)].psi == 2130
    assert by_pos[(3,)].psi == 2066
    assert report.min_entry.positions == (1,)
    assert report.max_entry.positions == (2,)
    assert report.all_ok
    assert report.ties == []
    assert report.verdicts["extremality"].status == "pass"


def test_sweep_four_hexagons():
    report = sweep([6, 6, 6, 6])
    assert len(report.entries) == 9
    assert report.min_entry.positions == (1, 1)
    assert report.max_entry.positions == (2, 2)
    assert report.all_ok


def test_sweep_single_chain_is_degenerate():
    report = sweep([3, 3, 3, 3])
    assert len(report.entries) == 1
    assert report.verdicts["extremality"].status == "degenerate"
    assert report.all_ok


def test_sweep_without_all_twos_chain():
    # an internal triangle admits only position 1, so no all-twos chain exists
    report = sweep([6, 3, 6, 6])
    v = report.verdicts["extremality"]
    assert v.status == "pass"
    assert "no all-twos chain" in v.detail
    assert report.min_entry.positions == (1, 1)
    assert report.all_ok


def test_sweep_mixed_sizes():
    report = sweep([5, 6, 7, 6])
    assert len(report.entries) == 9
    assert report.min_entry.positions == (1, 1)
    assert report.max_entry.positions == (2, 2)
    assert report.all_ok


def test_sweep_dedupe_keeps_extremes():
    full = sweep([6, 6, 6, 6, 6])
    deduped = sweep([6, 6, 6, 6, 6], dedupe_reversal=True)
    assert len(full.entries) == 27
    assert len(deduped.entries) == 18
    assert deduped.min_entry.psi == full.min_entry.psi
    assert deduped.max_entry.psi == full.max_entry.psi
    assert {e.psi for e in deduped.entries} == {e.psi for e in full.entries}


def test_sweep_parallel_matches_serial():
    serial = sweep([6, 6, 6, 6])
    parallel = sweep([6, 6, 6, 6], jobs=2)
    assert [e.to_json() for e in serial.entries] == [e.to_json() for e in parallel.entries]
    assert serial.min_entry == parallel.min_entry
    assert serial.max_entry == parallel.max_entry


def _materialized(report):
    """``report.to_json()`` with its streamed lists read out."""
    return {
        key: list(value) if isinstance(value, Iterator) else value
        for key, value in report.to_json().items()
    }


def test_sweep_csv_layout():
    buf = io.StringIO()
    sweep([6, 6, 6]).write_csv(buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "positions,psi,alpha,mis_count"
    assert lines[1] == "1,2002,8,5"
    assert len(lines) == 4


def test_sweep_json_schema():
    payload = _materialized(sweep([6, 6, 6]))
    assert json.dumps(payload)  # serializable
    assert payload["cycle_sizes"] == [6, 6, 6]
    assert payload["count"] == 3
    assert set(payload["min"]) == {"positions", "psi", "alpha", "mis_count"}
    assert payload["min"]["psi"] == "2002"
    assert set(payload["verdicts"]) == {
        "deletion_min_at_ortho",
        "deletion_max_at_meta",
        "psi_deletion_ordering",
        "extremality",
    }
    for verdict in payload["verdicts"].values():
        assert set(verdict) == {"status", "detail", "counterexample"}


def test_sweep_rejects_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(SpecError, match="jobs"):
            sweep([6, 6, 6], jobs=jobs)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, tasks):
        return [fn(*task) for task in tasks]


@pytest.mark.parametrize(
    "sizes, jobs, cpus, expected",
    [
        ([6, 6, 6, 6], 64, 8, 3),  # capped by the three first-position subtrees
        ([8, 8, 8, 8], 64, 2, 2),  # capped by the CPU count
        ([8, 8, 8, 8], 3, 8, 3),  # the requested jobs
        ([6, 3, 6, 6], 4, 8, None),  # one subtree: no pool at all
        ([6, 6], 4, 8, None),  # no internal position to split on
    ],
)
def test_sweep_pool_size(monkeypatch, sizes, jobs, cpus, expected):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("multiprocessing.Pool", _RecordingPool)
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: cpus)
    report = sweep(sizes, jobs=jobs)
    assert _RecordingPool.sizes == ([] if expected is None else [expected])
    serial = sweep(sizes)
    assert [e.to_json() for e in report.entries] == [e.to_json() for e in serial.entries]
    assert _materialized(report) == _materialized(serial)


def test_sweep_cap_is_eight_to_the_eleven():
    assert count_specs([8] * 11) == SWEEP_CAP
    assert count_specs([8] * 12) == 4 * SWEEP_CAP


def test_sweep_runs_at_the_cap_and_refuses_one_past_it(monkeypatch):
    monkeypatch.setattr(extremal, "SWEEP_CAP", 9)
    assert len(sweep([6, 6, 6, 6]).entries) == 9
    with pytest.raises(VertexCapError, match="27 chains exceeds the cap of 9"):
        sweep([6, 6, 6, 6, 6], dedupe_reversal=True)


def test_sweep_refuses_past_the_cap_before_any_work():
    started = time.perf_counter()
    with pytest.raises(VertexCapError, match=f"60466176 chains exceeds the cap of {SWEEP_CAP}"):
        sweep([12] * 12)
    assert time.perf_counter() - started < 1.0


def test_sweep_walks_chains_past_the_recursion_limit():
    # 1,100 cycles: a recursive walk of the position trie would pass the
    # interpreter's default recursion limit of 1,000
    report = sweep([3] * 1100)
    assert len(report.entries) == 1
    assert report.entries[0].psi == ortho_poly(3, 1100).eval_at_one()
    assert report.all_ok
