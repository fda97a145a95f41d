"""Hypothesis drives the CLI with generated arguments.

Every input must end in a documented exit code (0 to 3, never 5, the
internal error) within a second, and an input past a cap must be refused
with exit 3.  The inputs are either small, or large enough to be past a cap,
so that no example starts large real work.
"""

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from chaincacti.cli import main
from chaincacti.engine import CHAIN_VERTEX_CAP

small = st.integers(min_value=-1, max_value=9)
#: Cycle counts up to 10^6, each past a cap for the sizes drawn with it.
many = st.integers(min_value=10**5, max_value=10**6)


def _commas(values) -> str:
    return ",".join(map(str, values))


@st.composite
def poly_args(draw):
    engine = draw(st.sampled_from(["transfer", "recursive", "brute"]))
    if draw(st.booleans()):
        h, m = draw(st.integers(3, 12)), draw(many)
        argv, past_cap = ["poly", f"{h}^{m}/{draw(st.integers(1, h // 2))}^{m - 2}"], True
    else:
        sizes = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
        want = max(len(sizes) - 2, 0)
        positions = draw(st.lists(st.integers(1, 4), min_size=want, max_size=want))
        argv, past_cap = ["poly", f"{_commas(sizes)}/{_commas(positions)}"], False
    argv += ["--engine", engine]
    if draw(st.booleans()):
        cycles = st.sampled_from(["n", "n", "1", "2", "3", "x"])
        labels = draw(st.lists(st.tuples(cycles, st.integers(0, 6)), min_size=1, max_size=2))
        argv += ["--delete", _commas(f"{c}:{p}" for c, p in labels)]
        # the transfer engine refuses a long chain before it reads the labels
        past_cap = past_cap and (engine == "transfer" or all(c != "x" for c, _ in labels))
    if draw(st.booleans()):
        argv.append("--no-crosscheck")
    return argv, past_cap


@st.composite
def closed_args(draw):
    family = draw(st.sampled_from(["path", "cycle", "ortho", "meta"]))
    h = draw(st.one_of(small, many))
    n = draw(st.one_of(small, many))
    if family in ("path", "cycle"):
        return ["closed", family, "--n", str(n)], n > CHAIN_VERTEX_CAP
    argv = ["closed", family, "--n", str(n)]
    if draw(st.integers(0, 9)):
        argv += ["--h", str(h)]
        return argv, h >= 3 and n >= 1 and n * (h - 1) + 1 > CHAIN_VERTEX_CAP
    return argv, False


@st.composite
def sweep_args(draw):
    shape = draw(st.sampled_from(["small", "many chains", "long chain", "large cycles"]))
    if shape == "many chains":
        # (h//2)^(m-2) >= 2^99998 chains; m stops at 3*10^5 because checking
        # the sizes of 10^6 cycles alone takes about half the time limit
        m = draw(st.integers(10**5, 3 * 10**5))
        argv, past_cap = ["sweep", f"{draw(st.integers(4, 12))}^{m}"], True
    elif shape == "long chain":
        # one chain of at least 2,203 vertices
        argv, past_cap = ["sweep", f"3^{draw(st.integers(1101, 3 * 10**5))}"], True
    elif shape == "large cycles":
        # few chains of at least 2,202 vertices
        sizes = draw(st.lists(st.integers(1102, 10**6), min_size=2, max_size=3))
        argv, past_cap = ["sweep", _commas(sizes)], True
    else:
        sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=5))
        argv, past_cap = ["sweep", _commas(sizes)], False
    jobs = draw(st.integers(0, 2))
    argv += ["--jobs", str(jobs)]
    past_cap = past_cap and jobs >= 1
    if draw(st.booleans()):
        argv.append("--dedupe-reversal")
    argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv, past_cap


@st.composite
def verify_args(draw):
    suite = draw(st.sampled_from(["engines", "recurrences", "lemmas", "all"]))
    h_lo, n_lo = draw(st.integers(-1, 5)), draw(st.integers(-1, 3))
    shape = draw(st.sampled_from(["small", "many sizes", "long chains", "large cycles", "malformed"]))
    h_hi, n_hi = h_lo + draw(st.integers(0, 1)), min(n_lo + draw(st.integers(0, 2)), 4)
    if shape == "many sizes":
        # more than 262,144 sizes, and a chain of two such cycles past the vertex cap
        h_hi = draw(st.integers(3 * 10**5, 10**7))
    elif shape == "long chains":
        # at least 2^9999 chains, and chains past the vertex cap; past 5 * 10^5
        # to 10^6 cycles the count is bounded, not computed
        h_lo, h_hi = 4, 4 + draw(st.integers(0, 2))
        n_hi = draw(st.integers(10**4 + 1, 10**7))
    elif shape == "large cycles":
        # few chains, each past every vertex cap
        h_lo = h_hi = draw(st.integers(30_001, 10**7))
    h_range, n_range = f"{h_lo}..{h_hi}", f"{n_lo}..{n_hi}"
    if shape == "malformed":
        h_range = draw(st.sampled_from([f"{h_hi}..{h_lo - 1}", "x..3", "3.."]))
    # a negative range start reads as a flag to argparse, which exits 2
    needs = {"engines": 1, "lemmas": 2, "recurrences": 0, "all": 0}[suite]
    past_cap = h_lo >= 3 and n_lo >= 0 and (
        shape == "long chains"
        or (shape == "many sizes" and n_hi >= needs)
        or (shape == "large cycles" and (suite in ("recurrences", "all") or n_hi >= needs))
    )
    return ["verify", suite, "--h", h_range, "--n", n_range], past_cap


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses a malformed flag
            return exc.code


@settings(max_examples=40, deadline=None)
@given(st.one_of(poly_args(), closed_args(), sweep_args(), verify_args()))
def test_every_input_ends_in_a_documented_exit_code_at_once(case):
    argv, past_cap = case
    started = time.perf_counter()
    code = _run(argv)
    elapsed = time.perf_counter() - started
    assert code in (0, 1, 2, 3), argv
    assert elapsed < 1.0, (argv[:2], elapsed)
    if past_cap:
        assert code == 3, argv
