"""CLI behavior: output shapes, format selection, exit codes."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import chaincacti.cli as cli
import chaincacti.engine as engine
import chaincacti.extremal as extremal
from chaincacti.cli import EXIT_INTERNAL, main
from chaincacti.closed_forms import psi_path
from chaincacti.polynomial import Dominance


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_poly_text_output(capsys):
    assert main(["poly", "6,6/"]) == 0
    out = capsys.readouterr().out
    assert "spec: 6,6  engine: transfer" in out
    assert "psi = 194" in out
    assert "alpha = 6" in out
    assert "mis_count = 1" in out


def test_poly_json_envelope(capsys):
    code, payload = run_json(capsys, ["poly", "6,6/", "--format", "json"])
    assert code == 0
    assert set(payload) == {"command", "input", "result", "engine", "elapsed_ms"}
    assert payload["command"] == "poly"
    assert payload["engine"] == "transfer"
    result = payload["result"]
    assert result["coefficients"] == ["1", "11", "43", "73", "52", "13", "1"]
    assert result["psi"] == "194"
    assert result["crosschecked"] is True
    assert result["deleted"] == []


def test_poly_engines_agree(capsys):
    polys = []
    for engine in ("transfer", "recursive", "brute"):
        code, payload = run_json(
            capsys, ["poly", "5,6/", "--engine", engine, "--format", "json"]
        )
        assert code == 0
        polys.append(payload["result"]["coefficients"])
    assert polys[0] == polys[1] == polys[2]


def test_poly_no_crosscheck_flag(capsys):
    code, payload = run_json(
        capsys, ["poly", "6,6/", "--no-crosscheck", "--format", "json"]
    )
    assert code == 0
    assert payload["result"]["crosschecked"] is False


def test_poly_deletion_on_last_cycle(capsys):
    code, payload = run_json(
        capsys, ["poly", "6,6/", "--delete", "n:2", "--format", "json"]
    )
    assert code == 0
    assert payload["result"]["psi"] == "145"
    assert payload["result"]["deleted"] == ["2:2"]
    assert "note" not in payload["result"]


def test_poly_deletion_fallback_to_recursive(capsys):
    code, payload = run_json(
        capsys, ["poly", "6,6/", "--delete", "1:3", "--format", "json"]
    )
    assert code == 0
    assert payload["engine"] == "recursive"
    assert "transfer scan" in payload["result"]["note"]


def test_poly_multi_deletion(capsys):
    code, payload = run_json(
        capsys,
        ["poly", "6,6,6/2", "--delete", "1:3,n:2", "--engine", "recursive", "--format", "json"],
    )
    assert code == 0
    assert payload["result"]["deleted"] == ["1:3", "3:2"]


def test_poly_parse_errors(capsys):
    assert main(["poly", "6,6,6"]) == 2
    assert "positions are required" in capsys.readouterr().err
    assert main(["poly", "2,6/"]) == 2
    assert main(["poly", "6,6/", "--delete", "5"]) == 2
    assert main(["poly", "6,6/", "--delete", "9:1"]) == 2


def test_poly_bruteforce_cap(capsys):
    assert main(["poly", "8^5/1,1,1", "--engine", "brute"]) == 3
    assert "error:" in capsys.readouterr().err


def test_recursive_engine_computes_a_chain_past_the_recursion_limit(capsys):
    # a thousand triangles: 2,001 vertices, a pivot tree deeper than the
    # interpreter's default recursion limit
    spec = "3^1000/" + ",".join(["1"] * 998)
    code, rec = run_json(capsys, ["poly", spec, "--engine", "recursive", "--format", "json"])
    assert code == 0
    assert rec["engine"] == "recursive"
    code, transfer = run_json(capsys, ["poly", spec, "--no-crosscheck", "--format", "json"])
    assert code == 0
    assert rec["result"]["coefficients"] == transfer["result"]["coefficients"]
    assert rec["result"]["coefficients"][1] == "2001"


def test_uncaught_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(graph):
        raise RecursionError("too deep")

    monkeypatch.setattr(cli, "indpoly_recursive", broken)
    assert EXIT_INTERNAL == 5
    assert main(["poly", "6,6/", "--engine", "recursive"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback (most recent call last)" in captured.err
    assert captured.err.rstrip().endswith("error: internal: RecursionError: too deep")


def test_closed_path_and_cycle(capsys):
    code, payload = run_json(capsys, ["closed", "path", "--n", "4", "--format", "json"])
    assert code == 0
    assert payload["result"]["coefficients"] == ["1", "4", "3"]
    code, payload = run_json(capsys, ["closed", "cycle", "--n", "6", "--format", "json"])
    assert code == 0
    assert payload["result"]["psi"] == "18"


def test_closed_ortho_and_meta(capsys):
    code, payload = run_json(
        capsys, ["closed", "ortho", "--h", "6", "--n", "3", "--format", "json"]
    )
    assert code == 0
    assert payload["result"]["psi"] == "2002"
    assert payload["result"]["alpha"] == 8
    assert payload["result"]["mis_count"] == "5"
    code, payload = run_json(
        capsys, ["closed", "meta", "--h", "6", "--n", "3", "--format", "json"]
    )
    assert code == 0
    assert payload["result"]["psi"] == "2130"
    assert payload["result"]["alpha"] == 9


def test_closed_domain_errors(capsys):
    assert main(["closed", "meta", "--h", "3", "--n", "3"]) == 2
    assert "meta-position requires h >= 4" in capsys.readouterr().err
    assert main(["closed", "ortho", "--n", "2"]) == 2
    assert main(["closed", "cycle", "--n", "2"]) == 2


def test_sweep_json(capsys):
    code, payload = run_json(capsys, ["sweep", "6,6,6"])
    assert code == 0
    result = payload["result"]
    assert result["count"] == 3
    assert result["min"]["positions"] == [1]
    assert result["min"]["psi"] == "2002"
    assert result["max"]["positions"] == [2]
    assert result["verdicts"]["extremality"]["status"] == "pass"


def test_sweep_csv_stdout(capsys):
    assert main(["sweep", "6^4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "positions,psi,alpha,mis_count"
    assert len(lines) == 10
    assert lines[1].startswith('"1,1",')


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["sweep", "6,6,6", "--format", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    content = target.read_text()
    assert content.startswith("positions,psi,alpha,mis_count\n")
    assert content.endswith("\n")


def test_sweep_csv_to_stdout_and_to_a_file_are_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["sweep", "6,6,6", "--format", "csv", "--out", str(target)]) == 0
    assert main(["sweep", "6,6,6", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == target.read_text()
    assert out.endswith("\n3,2066,8,6\n")


_ENVELOPE_RUNS = [
    ["sweep", "6,6,6,6"],
    ["sweep", "3"],
    ["sweep", "6^5", "--dedupe-reversal"],
    ["sweep", "6^4", "--jobs", "2"],
    ["poly", "6,6,6/2", "--format", "json"],
    ["closed", "meta", "--h", "6", "--n", "5", "--format", "json"],
    ["verify", "lemmas", "--h", "4..5", "--n", "2..3", "--format", "json"],
]


def _assert_laid_out_as_json_dumps(text):
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv", _ENVELOPE_RUNS, ids=" ".join)
def test_envelope_is_laid_out_as_json_dumps(argv, capsys):
    assert main(argv) == 0
    _assert_laid_out_as_json_dumps(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [a for a in _ENVELOPE_RUNS if a[0] == "sweep"], ids=" ".join)
def test_sweep_out_file_is_the_stdout_envelope(argv, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main([*argv, "--out", str(target)]) == 0
    assert main(argv) == 0
    out = capsys.readouterr().out
    written = target.read_text()
    _assert_laid_out_as_json_dumps(written)

    def timeless(text):
        return [line for line in text.split("\n") if not line.startswith('  "elapsed_ms": ')]

    assert timeless(written) == timeless(out)


def test_failing_sweep_envelope_is_laid_out_as_json_dumps(capsys, monkeypatch):
    # no deletion is judged strictly below another, so two lemmas fail
    monkeypatch.setattr(extremal, "dominance", lambda a, b: Dominance.EQUAL)
    assert main(["sweep", "6,6,6,6"]) == 1
    text = capsys.readouterr().out
    _assert_laid_out_as_json_dumps(text)
    verdicts = json.loads(text)["result"]["verdicts"]
    assert verdicts["deletion_min_at_ortho"]["counterexample"]["spec"] == "6,6,6,6/1,1"
    assert verdicts["deletion_max_at_meta"]["status"] == "fail"
    assert verdicts["psi_deletion_ordering"]["status"] == "pass"


class _CountingSink:
    """Stands in for stdout: keeps the number of characters written, not the text."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)


def test_sweep_report_is_rendered_in_a_small_multiple_of_its_length(monkeypatch):
    # rendering the report as one string held nine times its length; the
    # sweep runs untraced, because tracing makes it ten times slower
    report = extremal.sweep([8] * 7)
    monkeypatch.setattr(extremal, "sweep", lambda *args, **kwargs: report)
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["sweep", "8^7"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.length > 300_000
    assert peak < 5 * sink.length


def test_sweep_out_unwritable(capsys):
    code = main(["sweep", "6,6,6", "--out", "/nonexistent-dir/report.json"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_sweep_degenerate_sizes(capsys):
    code, payload = run_json(capsys, ["sweep", "3^4"])
    assert code == 0
    assert payload["result"]["verdicts"]["extremality"]["status"] == "degenerate"


def test_sweep_parallel(capsys):
    code, payload = run_json(capsys, ["sweep", "6,6,6", "--jobs", "2"])
    assert code == 0
    assert payload["result"]["min"]["psi"] == "2002"


def test_sweep_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["sweep", "6,6,6", "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_sweep_echoes_the_jobs_it_was_given(capsys, monkeypatch):
    # a pool of 64 is never started: the sweep sizes it by subtrees and CPUs
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    code, payload = run_json(capsys, ["sweep", "6,6,6", "--jobs", "64"])
    assert code == 0
    assert payload["input"]["jobs"] == 64


def test_sweep_past_the_cap_exits_3_at_once(capsys):
    started = time.perf_counter()
    assert main(["sweep", "12^12"]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "60466176 chains" in err and "cap of 262144" in err


def test_verify_past_the_cap_exits_3_at_once(capsys):
    started = time.perf_counter()
    assert main(["verify", "lemmas", "--h", "4..12", "--n", "2..8"]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "128920950351 chains" in err and "cap of 262144" in err
    # verify all counts every suite's range before running the first one
    started = time.perf_counter()
    assert main(["verify", "all", "--h", "3..12"]) == 3
    assert time.perf_counter() - started < 1.0
    assert "verify lemmas over 4413600 chains" in capsys.readouterr().err
    # a long n range is counted in closed form, not one power per n
    started = time.perf_counter()
    assert main(["verify", "lemmas", "--n", "2..30000"]) == 3
    assert time.perf_counter() - started < 1.0
    assert "exceeds the cap of 262144 chains" in capsys.readouterr().err


def test_cap_messages_give_a_long_count_as_its_digit_count(capsys):
    # 25 * (14^29999 - 1) / 13 chains, 34,383 digits
    count = 25 * (14**29999 - 1) // 13
    assert 10**34382 <= count < 10**34383
    assert main(["verify", "lemmas", "--n", "2..30000"]) == 3
    err = capsys.readouterr().err
    assert "verify lemmas over a 34,383-digit number of chains exceeds the cap" in err
    assert len(err) < 100
    # 5^299998 chains, 209,690 digits
    assert 10**209689 <= 5**299998 < 10**209690
    started = time.perf_counter()
    assert main(["sweep", "10^300000"]) == 3
    assert time.perf_counter() - started < 0.5
    err = capsys.readouterr().err
    assert "sweep over a 209,690-digit number of chains exceeds the cap" in err
    assert len(err) < 100
    # a count of 30 digits is still given in full
    assert engine.count_text(10**30 - 1) == "9" * 30
    assert engine.count_text(10**30) == "a 31-digit number of"
    assert engine.count_text(10**31 - 1) == "a 31-digit number of"


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "6^100000/2^99998"],
        ["poly", "6^100000/2^99998", "--delete", "n:2"],
        ["closed", "ortho", "--h", "3", "--n", "1000000"],
        ["closed", "meta", "--h", "1000000", "--n", "3"],
        ["closed", "path", "--n", "100000000"],
    ],
)
def test_long_chains_past_the_vertex_cap_exit_3_at_once(capsys, argv):
    started = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - started < 1.0
    assert f"exceeds the cap of {cli.CHAIN_VERTEX_CAP} vertices" in capsys.readouterr().err


def test_the_vertex_cap_is_a_count_of_vertices(capsys, monkeypatch):
    # 5 hexagons have 26 vertices: accepted at a cap of 26, refused at 25
    monkeypatch.setattr(cli, "CHAIN_VERTEX_CAP", 26)
    assert main(["poly", "6^5/2^3", "--no-crosscheck"]) == 0
    assert main(["closed", "meta", "--h", "6", "--n", "5"]) == 0
    monkeypatch.setattr(cli, "CHAIN_VERTEX_CAP", 25)
    assert main(["poly", "6^5/2^3"]) == 3
    assert main(["closed", "meta", "--h", "6", "--n", "5"]) == 3
    # the recursive engine and brute force have caps of their own
    assert main(["poly", "6^5/2^3", "--engine", "recursive"]) == 0
    capsys.readouterr()


def test_poly_accepts_the_position_shorthand(capsys):
    code, typed = run_json(capsys, ["poly", "6^40/2^38", "--format", "json"])
    assert code == 0
    listed_spec = ",".join(["6"] * 40) + "/" + ",".join(["2"] * 38)
    code, listed = run_json(capsys, ["poly", listed_spec, "--format", "json"])
    assert typed["result"] == listed["result"]


def test_verify_text(capsys):
    assert main(["verify", "engines", "--h", "3..4", "--n", "1..2"]) == 0
    out = capsys.readouterr().out
    for name in (
        "engine_agreement",
        "unit_and_vertex_counts",
        "reversal_invariance",
        "mirror_deletion_symmetry",
        "transfer_prefix_consistency",
        "vertex_deletion_identity",
    ):
        assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, payload = run_json(
        capsys, ["verify", "lemmas", "--h", "4..5", "--n", "2..3", "--format", "json"]
    )
    assert code == 0
    assert payload["result"]["all_passed"] is True
    names = [r["name"] for r in payload["result"]["results"]]
    assert names == ["ortho_deletion_min", "meta_deletion_max", "psi_deletion_ordering"]


def test_verify_reports_vacuous_when_nothing_is_checked(capsys):
    # lemmas need two cycles, so --n 1..1 is clamped to an empty range
    assert main(["verify", "lemmas", "--n", "1..1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"VACUOUS {name} (checked 0)  [0 vacuous chain(s) skipped]"
        for name in ("ortho_deletion_min", "meta_deletion_max", "psi_deletion_ordering")
    ]
    code, payload = run_json(
        capsys, ["verify", "lemmas", "--h", "3..3", "--n", "2..2", "--format", "json"]
    )
    assert code == 0
    assert [r["status"] for r in payload["result"]["results"]] == ["vacuous"] * 3
    assert payload["result"]["all_passed"] is True
    assert main(["verify", "engines", "--n", "0..1"]) == 0
    out = capsys.readouterr().out
    assert "VACUOUS mirror_deletion_symmetry (checked 0)" in out
    assert "PASS engine_agreement" in out


def test_verify_recurrences_small(capsys):
    assert main(["verify", "recurrences", "--h", "4..6", "--n", "0..4"]) == 0


def test_verify_bad_range(capsys):
    assert main(["verify", "engines", "--h", "5..3"]) == 2
    assert main(["verify", "engines", "--h", "x..3"]) == 2


def test_format_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("CHAINCACTI_FORMAT", "json")
    assert main(["poly", "6/"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["psi"] == "18"
    # an explicit flag wins over the environment
    monkeypatch.setenv("CHAINCACTI_FORMAT", "text")
    code, payload = run_json(capsys, ["poly", "6/", "--format", "json"])
    assert code == 0


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "chaincacti", "poly", "6/"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "psi = 18" in proc.stdout


def test_poly_and_closed_load_only_what_they_run():
    script = """
import sys
from chaincacti import cli
assert cli.main(["poly", "3", "--format", "json"]) == 0
assert cli.main(["closed", "ortho", "--h", "6", "--n", "4"]) == 0
unused = ["chaincacti.extremal", "chaincacti.verification", "multiprocessing", "dataclasses", "csv",
          "decimal", "_decimal"]
print("loaded:", [m for m in unused if m in sys.modules])
from chaincacti import sweep, PropertyResult
print("lazy:", sweep.__module__, PropertyResult.__module__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "loaded: []" in proc.stdout
    assert "lazy: chaincacti.extremal chaincacti.extremal" in proc.stdout


def test_exact_counts_render_past_the_int_digit_limit():
    # psi_path(3500) has over 700 digits; the interpreter limit is set to 640
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "chaincacti",
         "closed", "path", "--n", "3500", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["psi"] == str(psi_path(3500))
