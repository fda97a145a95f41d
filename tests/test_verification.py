"""Property-suite plumbing: results, enumeration helpers, result shapes."""

import itertools

import chaincacti.verification as verification
from chaincacti.chain_model import ChainSpec
from chaincacti.verification import (
    PropertyResult,
    all_specs,
    count_chains,
    largest_chain,
    recurrence_vertices,
    size_lists,
    verify_dominance,
    verify_engines,
    verify_recurrences,
)


def test_property_result_keeps_first_counterexample():
    r = PropertyResult("demo", "some detail")
    r.check(True, lambda: {"x": 1})
    r.check(False, lambda: {"x": 2})
    r.check(False, lambda: {"x": 3})
    assert r.name == "demo"
    assert not r.passed
    assert r.checked == 3
    assert r.counterexample == {"x": 2}
    assert r.to_json() == {
        "name": "demo",
        "status": "fail",
        "checked": 3,
        "detail": "some detail",
        "counterexample": {"x": 2},
    }


def test_property_result_passing():
    r = PropertyResult("demo")
    r.check(True, lambda: {"x": 1})
    assert r.passed and r.counterexample is None
    assert r.to_json()["status"] == "pass"


def test_property_result_status_rule():
    r = PropertyResult("demo")
    assert (r.status, r.passed) == ("vacuous", True)
    r.vacuous += 2
    assert r.status == "vacuous"
    r.check(True, lambda: {"x": 1})
    assert r.status == "pass"
    r.check(False, lambda: {"x": 2})
    assert (r.status, r.passed) == ("fail", False)
    # a trivial comparison set is degenerate, unless a case was checked
    assert PropertyResult("demo", degenerate=True).status == "degenerate"
    assert PropertyResult("demo", checked=1, degenerate=True).status == "pass"
    assert PropertyResult("demo").to_json() == {
        "name": "demo",
        "status": "vacuous",
        "checked": 0,
        "detail": "",
        "counterexample": None,
    }


def test_size_lists_counts():
    assert len(list(size_lists([3, 4], [2]))) == 4
    assert len(list(size_lists([3, 4, 5], [1, 2]))) == 3 + 9
    assert list(size_lists([6], [0])) == []


def test_all_specs_counts():
    # n = 3 over {5, 6}: 8 size lists, middle cycle contributes floor(h/2) picks
    specs = list(all_specs([5, 6], [3]))
    assert len(specs) == sum(
        (mid // 2) * 1 for mid in (5, 6) for _ in range(4)
    )
    assert all(s.length == 3 for s in specs)


def test_verify_engines_result_names():
    results = verify_engines(range(3, 5), range(1, 3))
    assert [r.name for r in results] == [
        "engine_agreement",
        "unit_and_vertex_counts",
        "reversal_invariance",
        "mirror_deletion_symmetry",
        "transfer_prefix_consistency",
        "vertex_deletion_identity",
    ]
    assert all(r.passed for r in results)
    assert all(r.checked > 0 for r in results[:3])


def test_deletion_identity_fails_when_the_counter_lies(monkeypatch):
    real = verification.subset_counter

    def lying_counter(masks):
        count = real(masks)
        full = (1 << len(masks)) - 1
        # one extra set of size 1 in G - v_2, for the 5-cycle only
        liar = full & ~(1 << 2) if len(masks) == 5 else None

        def lie(allowed):
            got = count(allowed)
            return [got[0], got[1] + 1, *got[2:]] if allowed == liar else got

        return lie

    monkeypatch.setattr(verification, "subset_counter", lying_counter)
    results = {r.name: r for r in verify_engines([5], [1])}
    identity = results["vertex_deletion_identity"]
    assert not identity.passed
    assert identity.checked == 5
    assert identity.counterexample == {"spec": ChainSpec((5,), ()).to_text(), "vertex": 2}
    assert identity.to_json()["status"] == "fail"
    # the lie reaches only the identity; the engines still agree
    assert all(r.passed for name, r in results.items() if name != "vertex_deletion_identity")


def test_verify_recurrences_result_names():
    results = verify_recurrences(range(4, 6), range(0, 5))
    assert [r.name for r in results] == [
        "path_cycle_formulas",
        "psi_path_fibonacci_lucas",
        "short_chain_forms",
        "ortho_matches_engine",
        "meta_matches_engine",
        "ortho_recurrence_on_engine",
        "meta_recurrence_on_engine",
        "alpha_and_mis_formulas",
    ]
    assert all(r.passed for r in results)


def test_verify_dominance_counts_vacuous():
    results = verify_dominance([4], [2])
    by_name = {r.name: r for r in results}
    assert all(r.passed for r in results)
    # h = 4 last cycle has canonical positions {1, 2}: the max check is vacuous
    assert by_name["meta_deletion_max"].checked == 0
    assert "1 vacuous" in by_name["meta_deletion_max"].detail
    assert by_name["ortho_deletion_min"].checked == 1
    assert by_name["psi_deletion_ordering"].checked == 1


def test_verify_dominance_with_nothing_to_check_is_vacuous():
    # n = 1 leaves no chain of two cycles; a triangle last cycle has one deletion
    for h_values, n_values, skipped in (([4, 5], [1], 0), ([3], [2], 1)):
        for r in verify_dominance(h_values, n_values):
            assert (r.status, r.checked, r.vacuous) == ("vacuous", 0, skipped)
            assert r.passed
            assert r.detail == f"{skipped} vacuous chain(s) skipped"


def test_deletion_identity_cap_is_a_constant(monkeypatch):
    assert verification.DELETION_IDENTITY_CAP == 20
    identity = verify_engines([5, 6], [1])[-1]
    assert identity.detail == "graphs up to 20 vertices"
    assert identity.checked == 5 + 6
    monkeypatch.setattr(verification, "DELETION_IDENTITY_CAP", 5)
    identity = verify_engines([5, 6], [1])[-1]
    assert identity.detail == "graphs up to 5 vertices"
    assert identity.checked == 5


def test_count_chains_matches_enumeration():
    for h_values, n_values in [
        (range(3, 9), range(1, 5)),
        (range(4, 9), range(2, 5)),
        (range(3, 4), range(0, 6)),
        (range(5, 8), range(3, 4)),
        (range(4, 5), range(5, 3)),
    ]:
        assert count_chains(h_values, n_values) == sum(1 for _ in all_specs(h_values, n_values))
    # the two CLI defaults: verify engines and verify lemmas
    assert count_chains(range(3, 9), range(1, 5)) == 8682
    assert count_chains(range(4, 9), range(2, 6)) == 73875


def test_count_chains_sums_the_sizes_in_closed_form():
    # |H| + |H|^2 * S on n = 1..3, against S summed term by term, also on
    # sizes below 3 that the suites refuse later
    for lo in range(-4, 9):
        for hi in range(lo, 14):
            hs = range(lo, hi + 1)
            s = sum(h // 2 for h in hs)
            assert count_chains(hs, range(1, 4)) == len(hs) * (1 + len(hs) * (1 + s))
    hs = range(3, 30_000_001)
    assert count_chains(hs, range(2, 3)) == len(hs) ** 2


def test_recurrence_vertices_counts_the_chains_the_suite_builds():
    # the chain of two cycles for every size h >= 3, and one of n >= 1
    # cycles for every n in range, of n*(h-1) + 1 vertices each
    for h_lo, h_hi, n_lo, n_hi in itertools.product(range(-1, 6), range(2, 8), range(-1, 3), range(0, 6)):
        hs, ns = range(h_lo, h_hi + 1), range(n_lo, n_hi + 1)
        chains = [(h, n) for h in hs if h >= 3 for n in [*(n for n in ns if n >= 1), 2]]
        sizes = [n * (h - 1) + 1 for h, n in chains]
        assert recurrence_vertices(hs, ns) == (max(sizes, default=0), sum(sizes))
    # the CLI default
    assert recurrence_vertices(range(3, 9), range(0, 9)) == (57, 1080)


def test_count_chains_gives_a_power_of_ten_below_a_count_too_large_to_compute(monkeypatch):
    # S = 1 + 2 + 2 + 3 + 3 + 4 = 15 over h = 3..8: S^58 has 58 * 3 = 174 bits by bit lengths
    hs, ns = range(3, 9), range(2, 61)
    exact = count_chains(hs, ns)
    monkeypatch.setattr(verification, "EXACT_COUNT_BITS", 174)
    assert count_chains(hs, ns) == exact
    monkeypatch.setattr(verification, "EXACT_COUNT_BITS", 173)
    bound = count_chains(hs, ns)
    assert not isinstance(bound, int)
    assert bound == 10**bound.adjusted() and bound < exact < 10**4 * bound
    # 13 million digits, bounded at once
    assert count_chains(range(3, 10_000_001), range(0, 1_000_001)).adjusted() == 13_397_913


def test_largest_chain_is_the_largest_the_suites_enumerate():
    for h_lo, h_hi, n_lo, n_hi in itertools.product(range(3, 6), range(5, 8), range(-1, 3), range(0, 4)):
        hs, ns = range(h_lo, h_hi + 1), range(n_lo, n_hi + 1)
        vertices = [spec.num_vertices for spec in all_specs(hs, ns)]
        assert largest_chain(hs, ns) == max(vertices, default=0)
