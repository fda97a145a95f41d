"""The `result` object of a few sweep and verify runs, pinned value for value.

Everything of the JSON envelope but `elapsed_ms` is deterministic, so these
guard the shape and the wording of every check a refactor of the verdict
layer touches: passing, vacuous and degenerate statuses, their details, and
the checked counts.
"""

import json

from chaincacti.cli import main


def _result(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["result"]


def _entry(positions, psi, alpha, mis_count):
    return {"positions": positions, "psi": psi, "alpha": alpha, "mis_count": mis_count}


def _verdict(status, detail):
    return {"status": status, "detail": detail, "counterexample": None}


def test_sweep_four_hexagons_result(capsys):
    checked = _verdict("pass", "9 of 9 chain(s) checked")
    assert _result(capsys, ["sweep", "6,6,6,6", "--format", "json"]) == {
        "cycle_sizes": [6, 6, 6, 6],
        "count": 9,
        "entries": [
            _entry([1, 1], "20866", 11, "1"),
            _entry([1, 2], "21890", 11, "4"),
            _entry([1, 3], "21378", 11, "1"),
            _entry([2, 1], "21890", 11, "4"),
            _entry([2, 2], "23426", 12, "1"),
            _entry([2, 3], "22658", 11, "5"),
            _entry([3, 1], "21378", 11, "1"),
            _entry([3, 2], "22658", 11, "5"),
            _entry([3, 3], "22018", 11, "1"),
        ],
        "min": _entry([1, 1], "20866", 11, "1"),
        "max": _entry([2, 2], "23426", 12, "1"),
        "verdicts": {
            "deletion_min_at_ortho": checked,
            "deletion_max_at_meta": checked,
            "psi_deletion_ordering": checked,
            "extremality": _verdict(
                "pass", "minimum uniquely at all-ones, maximum uniquely at all-twos"
            ),
        },
        "ties": [
            {"psi": "21378", "positions": [[1, 3], [3, 1]]},
            {"psi": "21890", "positions": [[1, 2], [2, 1]]},
            {"psi": "22658", "positions": [[2, 3], [3, 2]]},
        ],
    }


def test_sweep_with_vacuous_deletions_result(capsys):
    # a triangle last cycle has one canonical deletion, and an internal
    # triangle leaves no all-twos chain
    nothing = _verdict("vacuous", "nothing to check across 2 chain(s)")
    assert _result(capsys, ["sweep", "6,3,5,3", "--format", "json"]) == {
        "cycle_sizes": [6, 3, 5, 3],
        "count": 2,
        "entries": [_entry([1, 1], "675", 7, "2"), _entry([1, 2], "711", 7, "4")],
        "min": _entry([1, 1], "675", 7, "2"),
        "max": _entry([1, 2], "711", 7, "4"),
        "verdicts": {
            "deletion_min_at_ortho": nothing,
            "deletion_max_at_meta": nothing,
            "psi_deletion_ordering": nothing,
            "extremality": _verdict(
                "pass", "minimum uniquely at all-ones; no all-twos chain for these sizes"
            ),
        },
        "ties": [],
    }


def test_sweep_single_chain_result(capsys):
    checked = _verdict("pass", "1 of 1 chain(s) checked")
    only = _entry([], "194", 6, "1")
    assert _result(capsys, ["sweep", "6,6", "--format", "json"]) == {
        "cycle_sizes": [6, 6],
        "count": 1,
        "entries": [only],
        "min": only,
        "max": only,
        "verdicts": {
            "deletion_min_at_ortho": checked,
            "deletion_max_at_meta": checked,
            "psi_deletion_ordering": checked,
            "extremality": _verdict("degenerate", "only one canonical chain for these sizes"),
        },
        "ties": [],
    }


def test_verify_lemmas_result(capsys):
    argv = ["verify", "lemmas", "--h", "4..6", "--n", "2..3", "--format", "json"]

    def passed(name, checked, vacuous):
        return {
            "name": name,
            "status": "pass",
            "checked": checked,
            "detail": f"{vacuous} vacuous chain(s) skipped",
            "counterexample": None,
        }

    assert _result(capsys, argv) == {
        "results": [
            passed("ortho_deletion_min", 72, 0),
            passed("meta_deletion_max", 24, 48),
            passed("psi_deletion_ordering", 72, 0),
        ],
        "all_passed": True,
    }
