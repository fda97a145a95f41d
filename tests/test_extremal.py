"""Dominance verdicts and position sweeps."""

import json
import time

import pytest

import chaincacti.extremal as extremal
from chaincacti.chain_model import ChainSpec, SpecError, count_specs, parse_spec
from chaincacti.closed_forms import ortho_poly
from chaincacti.engine import VertexCapError
from chaincacti.extremal import (
    SWEEP_CAP,
    SweepEntry,
    Verdict,
    _extremality_verdict,
    _merge,
    _meta_deletion_max,
    _ortho_deletion_min,
    _psi_deletion_ordering,
    deletion_verdicts,
    sweep,
)
from chaincacti.polynomial import UniPoly


def test_deletion_verdicts_on_two_hexagons():
    verdicts = deletion_verdicts(parse_spec("6,6/"))
    assert [v.status for v in verdicts] == ["pass", "pass", "pass"]


def test_deletion_verdicts_pass_across_small_sizes():
    for sizes in [(4, 7), (8, 8), (5, 6, 7), (6, 4, 8)]:
        spec = ChainSpec(sizes, tuple(1 for _ in sizes[1:-1]))
        assert all(v.ok for v in deletion_verdicts(spec))


def test_deletion_verdicts_vacuous_cases():
    # triangle last cycle: position 1 is the only canonical deletion
    ortho, meta, psi = deletion_verdicts(parse_spec("6,3/"))
    assert ortho.status == "vacuous"
    assert "no canonical position beyond 1" in ortho.detail
    assert meta.status == "vacuous"
    assert psi.status == "vacuous"
    # h = 4 or 5 last cycle: nothing deeper than position 2
    for text in ("6,4/", "6,5/"):
        ortho, meta, psi = deletion_verdicts(parse_spec(text))
        assert meta.status == "vacuous"
        assert ortho.status == psi.status == "pass"


def test_deletion_verdicts_require_two_cycles():
    with pytest.raises(SpecError):
        deletion_verdicts(parse_spec("6/"))
    with pytest.raises(SpecError):
        deletion_verdicts(parse_spec("8/"))


def test_deletion_verdicts_compute_each_position_once(monkeypatch):
    calls = []

    def counting(spec, k):
        calls.append((spec, k))
        return UniPoly([1, k])

    monkeypatch.setattr(extremal, "indpoly_chain_minus_last_vertex", counting)
    for text in ("6,3/", "6,8/", "5,6,9/2"):
        calls.clear()
        spec = parse_spec(text)
        deletion_verdicts(spec)
        h = spec.cycle_sizes[-1]
        assert calls == [(spec, k) for k in range(1, h // 2 + 1)]
        # deletions handed in by the chain walk are judged, not recomputed
        calls.clear()
        given = [UniPoly([1, k]) for k in range(1, h // 2 + 1)]
        judged = deletion_verdicts(spec, given)
        assert calls == []
        assert judged == deletion_verdicts(spec)


def _assert_fail(verdict, k, poly_a, poly_b):
    assert verdict.status == "fail"
    assert not verdict.ok
    assert verdict.counterexample == {
        "spec": "8,8",
        "k": k,
        "poly_a": poly_a.to_coeff_strings(),
        "poly_b": poly_b.to_coeff_strings(),
    }


def test_ortho_deletion_min_fails_when_position_1_not_below():
    spec = parse_spec("8,8/")
    polys = {1: UniPoly([1, 3]), 2: UniPoly([1, 4]), 3: UniPoly([1, 2]), 4: UniPoly([1, 5])}
    v = _ortho_deletion_min(spec, polys)
    assert "position 1 not strictly below position 3" in v.detail
    _assert_fail(v, 3, polys[1], polys[3])


def test_meta_deletion_max_fails_when_deeper_position_not_below_2():
    spec = parse_spec("8,8/")
    polys = {1: UniPoly([1, 1]), 2: UniPoly([1, 4]), 3: UniPoly([1, 3]), 4: UniPoly([2, 3])}
    v = _meta_deletion_max(spec, polys)
    assert "position 4 not strictly below position 2" in v.detail
    _assert_fail(v, 4, polys[4], polys[2])


def test_psi_deletion_ordering_fails_when_out_of_order():
    spec = parse_spec("8,8/")
    # psi at position 1 ties position 2
    low = {1: UniPoly([2, 3]), 2: UniPoly([1, 4]), 3: UniPoly([1, 3]), 4: UniPoly([1, 3])}
    v = _psi_deletion_ordering(spec, low)
    assert "psi at position 1 not below position 2" in v.detail
    _assert_fail(v, 2, low[1], low[2])
    # psi at position 3 above position 2, though the two are coefficientwise incomparable
    high = {1: UniPoly([1, 1]), 2: UniPoly([1, 5]), 3: UniPoly([3, 4]), 4: UniPoly([1, 3])}
    v = _psi_deletion_ordering(spec, high)
    assert "psi at position 3 not below position 2" in v.detail
    _assert_fail(v, 3, high[3], high[2])


def test_merge_reports_first_failure():
    bad = Verdict("fail", "broken", {"spec": "x"})
    merged = _merge([Verdict("pass"), bad, Verdict("pass")])
    assert merged is bad
    assert not merged.ok


def test_merge_vacuous_and_mixed():
    assert _merge([Verdict("vacuous"), Verdict("vacuous")]).status == "vacuous"
    mixed = _merge([Verdict("pass"), Verdict("vacuous"), Verdict("pass")])
    assert mixed.status == "pass"
    assert "2 of 3" in mixed.detail


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


def test_sweep_csv_layout():
    text = sweep([6, 6, 6]).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "positions,psi,alpha,mis_count"
    assert lines[1] == "1,2002,8,5"
    assert len(lines) == 4


def test_sweep_json_schema():
    payload = sweep([6, 6, 6]).to_json()
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
    assert report.to_json() == serial.to_json()


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
