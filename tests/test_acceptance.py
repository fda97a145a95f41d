"""Acceptance criteria, one test per criterion.

Each test prints exactly one ``criterion N (name): PASS|FAIL`` line to the
live terminal (capture suspended) and then asserts.  The two expensive
exhaustive suites run once each in module-scoped fixtures and are shared by
the criteria that read them.
"""

import time

import pytest

from chaincacti.chain_model import ChainSpec, build, parse_spec
from chaincacti.closed_forms import (
    alpha_meta,
    alpha_ortho,
    count_mis_meta,
    count_mis_ortho,
    cycle_poly,
    meta_recurrence_coeffs,
    ortho_poly,
    meta_poly,
    path_poly,
    psi_path,
)
from chaincacti.engine import (
    indpoly_bruteforce,
    indpoly_chain,
    indpoly_chain_minus_last_vertex,
)
from chaincacti.extremal import sweep
from chaincacti.verification import verify_dominance, verify_engines

from conftest import cycle_graph, path_graph


def _report(capsys, number: int, name: str, ok: bool, failures: list[str]) -> None:
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def engine_suite():
    started = time.perf_counter()
    results = verify_engines(range(3, 9), range(1, 5))
    elapsed = time.perf_counter() - started
    return {r.name: r for r in results}, elapsed


@pytest.fixture(scope="module")
def dominance_suite():
    started = time.perf_counter()
    results = verify_dominance(range(4, 9), range(2, 6))
    elapsed = time.perf_counter() - started
    return {r.name: r for r in results}, elapsed


def test_criterion_1_three_engine_agreement(engine_suite, capsys):
    results, elapsed = engine_suite
    failures = []
    agreement = results["engine_agreement"]
    if not agreement.passed:
        failures.append(f"disagreement: {agreement.counterexample}")
    if agreement.checked != 8682:
        failures.append(f"expected 8682 chains, checked {agreement.checked}")
    if elapsed >= 120:
        failures.append(f"suite took {elapsed:.1f}s, budget 120s")
    _report(capsys, 1, "three-engine agreement", not failures, failures)


def test_criterion_2_closed_form_reproduction(capsys):
    failures = []
    for n in range(0, 21):
        if path_poly(n) != indpoly_bruteforce(path_graph(n)):
            failures.append(f"path formula wrong at n={n}")
    for n in range(3, 21):
        if cycle_poly(n) != indpoly_bruteforce(cycle_graph(n)):
            failures.append(f"cycle formula wrong at n={n}")
    for h in range(3, 9):
        if ortho_poly(h, 1) != cycle_poly(h):
            failures.append(f"length-1 chain differs from cycle at h={h}")
        side, end = path_poly(h - 3), path_poly(h - 1)
        if ortho_poly(h, 2) != (side * side).shift(1) + end * end:
            failures.append(f"length-2 split wrong at h={h}")
    _report(capsys, 2, "path/cycle closed forms", not failures, failures)


def test_criterion_3_recurrence_verification(capsys):
    failures = []
    for h in range(4, 9):
        side = path_poly(h - 3)
        bridge = (side * side).shift(1)
        step = path_poly(h - 2)
        a, b = meta_recurrence_coeffs(h)
        ones = {n: indpoly_chain(ChainSpec((h,) * n, (1,) * (n - 2))) for n in range(1, 9)}
        twos = {n: indpoly_chain(ChainSpec((h,) * n, (2,) * (n - 2))) for n in range(1, 9)}
        for n in range(3, 9):
            if ones[n] != bridge * ones[n - 2] + step * ones[n - 1]:
                failures.append(f"ortho recurrence fails at h={h}, n={n}")
            if twos[n] != a * twos[n - 1] - (b * twos[n - 2]).shift(2):
                failures.append(f"meta recurrence fails at h={h}, n={n}")
    _report(capsys, 3, "ortho/meta recurrences on engine values", not failures, failures)


def test_criterion_4_alpha_and_leading_formulas(capsys):
    failures = []
    for h in range(3, 9):
        for n in range(2, 9):
            deg, lead = indpoly_chain(
                ChainSpec((h,) * n, (1,) * (n - 2))
            ).degree_and_leading()
            if deg != alpha_ortho(h, n) or lead != count_mis_ortho(h, n):
                failures.append(f"ortho extremes wrong at h={h}, n={n}")
    for h in range(4, 9):
        for n in range(2, 9):
            deg, lead = indpoly_chain(
                ChainSpec((h,) * n, (2,) * (n - 2))
            ).degree_and_leading()
            if deg != alpha_meta(h, n) or lead != count_mis_meta(h, n):
                failures.append(f"meta extremes wrong at h={h}, n={n}")
    if meta_poly(6, 3).degree_and_leading() != (9, 1):
        failures.append("spot value (9, 1) for the h=6 meta chain of length 3")
    if ortho_poly(6, 3).degree_and_leading()[1] != 5:
        failures.append("spot value 5 for the h=6 ortho chain of length 3")
    if meta_poly(5, 3).degree_and_leading()[1] != 18:
        failures.append("spot value 18 for the h=5 meta chain of length 3")
    _report(capsys, 4, "independence number and count formulas", not failures, failures)


def test_criterion_5_fibonacci_lucas_identity(capsys):
    failures = [
        f"mismatch at n={n}"
        for n in range(1, 51)
        if psi_path(n) != path_poly(n).eval_at_one()
    ]
    _report(capsys, 5, "path count Fibonacci/Lucas identity", not failures, failures)


def test_criterion_6_deletion_dominance(dominance_suite, capsys):
    results, elapsed = dominance_suite
    failures = [
        f"{name}: {r.counterexample}" for name, r in results.items() if not r.passed
    ]
    witness = parse_spec("6,6/")
    psi = {
        k: indpoly_chain_minus_last_vertex(witness, k).eval_at_one() for k in (1, 2, 3)
    }
    if not (psi[1] == 129 and psi[3] == 137 and psi[2] == 145):
        failures.append(f"witness triple mismatch: {psi}")
    if elapsed >= 300:
        failures.append(f"suite took {elapsed:.1f}s, budget 300s")
    _report(capsys, 6, "deletion dominance orderings", not failures, failures)


def test_criterion_7_extremality_sweeps(capsys):
    failures = []
    five = sweep([6] * 5)
    if len(five.entries) != 27:
        failures.append(f"expected 27 chains at h=6, n=5, got {len(five.entries)}")
    if five.min_entry.positions != (1, 1, 1) or five.max_entry.positions != (2, 2, 2):
        failures.append("extremes not at all-ones/all-twos for h=6, n=5")
    if sum(1 for e in five.entries if e.psi == five.min_entry.psi) != 1:
        failures.append("minimum not strict for h=6, n=5")
    if sum(1 for e in five.entries if e.psi == five.max_entry.psi) != 1:
        failures.append("maximum not strict for h=6, n=5")
    if not five.verdicts["extremality"].passed:
        failures.append("extremality verdict failed for h=6, n=5")

    three = sweep([6, 6, 6])
    by_pos = {e.positions: e.psi for e in three.entries}
    if not (by_pos[(1,)] == 2002 and by_pos[(3,)] == 2066 and by_pos[(2,)] == 2130):
        failures.append(f"h=6, n=3 ranking wrong: {by_pos}")
    for k in (1, 2, 3):
        g = build(ChainSpec((6, 6, 6), (k,)))
        if g.num_vertices != 16:
            failures.append(f"position {k} graph is not 16 vertices")
        if indpoly_bruteforce(g).eval_at_one() != by_pos[(k,)]:
            failures.append(f"brute-force confirmation failed at position {k}")

    mixed = sweep([5, 6, 7, 6])
    if not mixed.all_ok:
        failures.append("mixed-size sweep (5,6,7,6) failed")
    _report(capsys, 7, "sweep extremality", not failures, failures)


def test_criterion_8_invariant_suite(engine_suite, capsys):
    results, _ = engine_suite
    failures = []
    for name in (
        "unit_and_vertex_counts",
        "vertex_deletion_identity",
        "reversal_invariance",
        "mirror_deletion_symmetry",
    ):
        r = results[name]
        if not r.passed:
            failures.append(f"{name}: {r.counterexample}")
        if r.checked == 0:
            failures.append(f"{name} checked nothing")
    _report(capsys, 8, "structural invariants", not failures, failures)
