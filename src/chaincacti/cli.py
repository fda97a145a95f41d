"""Command-line interface.

Four subcommands: ``poly`` evaluates one chain (optionally with vertices
deleted), ``closed`` prints a closed-form family member, ``sweep`` walks every
canonical position sequence over a size list and reports extremes and
verdicts, ``verify`` runs the exhaustive property suites.

Exit codes: 0 success, 1 verification failure (counterexample emitted),
2 parse or domain error, 3 resource cap exceeded, 4 I/O failure, 5 internal
error (any other exception; its traceback goes to stderr).  Big counts
are always rendered as decimal strings.  The CHAINCACTI_FORMAT environment
variable sets the default output format where the flag is omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from collections.abc import Iterator
from typing import TextIO

from .chain_model import (
    ChainSpec,
    SpecError,
    VertexLabel,
    _parse_int,
    _parse_sizes,
    build,
    parse_spec,
)
from .closed_forms import cycle_poly, meta_poly, ortho_poly, path_poly
from .engine import (
    BRUTE_FORCE_CAP,
    CHAIN_VERTEX_CAP,
    MEMO_VERTEX_CAP,
    VertexCapError,
    indpoly_bruteforce,
    indpoly_chain,
    indpoly_chain_minus_last_vertex,
    indpoly_recursive,
    refuse_past,
)
from .polynomial import UniPoly

CROSSCHECK_CAP = 24
FORMAT_ENV = "CHAINCACTI_FORMAT"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


#: ``json.dumps(value, indent=2)`` is ``_INDENTED.encode(value)``.
_INDENTED = json.JSONEncoder(indent=2)
#: Items of a streamed list rendered per encoder call.
_BATCH = 256


def _write_json(value, fh: TextIO, pad: str = "") -> None:
    """Write ``value`` to ``fh`` as ``json.dumps(value, indent=2)`` lays it out,
    every line after the first indented by ``pad`` more.

    An iterator is written as a list, a few hundred items at a time, so a
    long report is never held whole, as values or as text; its items hold no
    iterator.  Dictionary keys are strings.
    """
    if isinstance(value, Iterator):
        sep = "["
        while batch := list(itertools.islice(value, _BATCH)):
            # "[\n  item,\n  item\n]": keep all but the brackets and the last newline
            fh.write(sep + _INDENTED.encode(batch)[1:-2].replace("\n", "\n" + pad))
            sep = ","
        fh.write("[]" if sep == "[" else f"\n{pad}]")
    elif isinstance(value, dict) and value:
        sep = "{"
        for key, item in value.items():
            fh.write(f"{sep}\n{pad}  {json.dumps(key)}: ")
            _write_json(item, fh, pad + "  ")
            sep = ","
        fh.write(f"\n{pad}}}")
    else:
        fh.write(_INDENTED.encode(value).replace("\n", "\n" + pad))


def _output(out_path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """The file at ``out_path``, opened only now, or stdout, for a ``with``."""
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _write_envelope(
    command: str,
    inputs: dict,
    result: dict,
    engine: str | None,
    started: float,
    out_path: str | None = None,
) -> None:
    """Write the JSON output envelope and one newline; ``started`` is a perf_counter reading."""
    envelope = {
        "command": command,
        "input": inputs,
        "result": result,
        "engine": engine,
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }
    with _output(out_path) as fh:
        _write_json(envelope, fh)
        fh.write("\n")


def _default_format(flag_value: str | None, choices: tuple[str, ...], fallback: str) -> str:
    if flag_value:
        return flag_value
    env = os.environ.get(FORMAT_ENV, "")
    return env if env in choices else fallback


def _poly_payload(poly: UniPoly) -> dict:
    deg, lead = poly.degree_and_leading()
    return {
        "coefficients": poly.to_coeff_strings(),
        "text": str(poly),
        "psi": str(poly.eval_at_one()),
        "alpha": deg,
        "mis_count": str(lead),
    }


def _print_poly_text(payload: dict) -> None:
    print(f"i(G) = {payload['text']}")
    print(f"psi = {payload['psi']}")
    print(f"alpha = {payload['alpha']}")
    print(f"mis_count = {payload['mis_count']}")


def _parse_labels(text: str, spec: ChainSpec) -> list[VertexLabel]:
    labels = []
    for token in text.split(","):
        token = token.strip()
        cycle_s, sep, pos_s = token.partition(":")
        if not sep:
            raise SpecError(f"bad label {token!r}, expected cycle:position")
        cycle = spec.length if cycle_s.strip() == "n" else _parse_int(cycle_s, "cycle")
        labels.append(VertexLabel(cycle, _parse_int(pos_s, "position")))
    return labels


# -- poly ----------------------------------------------------------------------


def cmd_poly(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.spec)
    fmt = _default_format(args.format, ("text", "json"), "text")
    engine = args.engine
    note = None

    if engine == "transfer":
        refuse_past(spec.num_vertices, CHAIN_VERTEX_CAP, "chain of", "vertices")
    deletions = _parse_labels(args.delete, spec) if args.delete else []
    transfer_deletion = (
        len(deletions) == 1
        and spec.length >= 2
        and deletions[0].cycle == spec.length
        and 1 <= deletions[0].position <= spec.cycle_sizes[-1] - 1
    )
    if engine == "transfer" and deletions and not transfer_deletion:
        note = "deletion not expressible in the transfer scan: recursive engine used"
        engine = "recursive"
    # at least this many vertices remain, as a cut vertex has two labels
    graph_vertices = spec.num_vertices - len(deletions)
    if engine != "transfer":
        cap = BRUTE_FORCE_CAP if engine == "brute" else MEMO_VERTEX_CAP
        refuse_past(graph_vertices, cap, f"{engine} engine on a graph of at least", "vertices")

    def graph():
        return build(spec).delete_vertices(deletions)

    if engine == "brute":
        poly = indpoly_bruteforce(graph())
    elif engine == "recursive":
        poly = indpoly_recursive(graph())
    elif deletions:
        poly = indpoly_chain_minus_last_vertex(spec, deletions[0].position)
    else:
        poly = indpoly_chain(spec)

    crosschecked = False
    if engine == "transfer" and not args.no_crosscheck and graph_vertices <= CROSSCHECK_CAP:
        other = indpoly_recursive(graph())
        crosschecked = True
        if other != poly:
            diagnostic = {
                "spec": spec.to_text(),
                "transfer": poly.to_coeff_strings(),
                "recursive": other.to_coeff_strings(),
            }
            print(f"engine mismatch: {json.dumps(diagnostic)}", file=sys.stderr)
            return EXIT_VERIFY_FAILED

    payload = _poly_payload(poly)
    payload["spec"] = spec.to_text()
    payload["deleted"] = [str(lab) for lab in deletions]
    payload["crosschecked"] = crosschecked
    if note:
        payload["note"] = note

    if fmt == "json":
        inputs = {"spec": args.spec, "engine": args.engine, "delete": args.delete}
        _write_envelope("poly", inputs, payload, engine, started)
    else:
        print(f"spec: {spec.to_text()}  engine: {engine}")
        if deletions:
            print(f"deleted: {', '.join(str(lab) for lab in deletions)}")
        _print_poly_text(payload)
    return EXIT_OK


# -- closed --------------------------------------------------------------------


def cmd_closed(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    fmt = _default_format(args.format, ("text", "json"), "text")
    family = args.family
    n = args.n

    if family == "path" and n < 0:
        raise SpecError(f"path length {n} < 0")
    if family in ("path", "cycle"):
        refuse_past(n, CHAIN_VERTEX_CAP, f"{family} of", "vertices")
        poly = path_poly(n) if family == "path" else cycle_poly(n)
        payload = _poly_payload(poly)
    else:
        h = args.h
        if h is None:
            raise SpecError(f"--h is required for {family}")
        # n cycles of h vertices share n - 1 cut vertices
        refuse_past(n * (h - 1) + 1, CHAIN_VERTEX_CAP, f"{family} chain of", "vertices")
        poly = ortho_poly(h, n) if family == "ortho" else meta_poly(h, n)
        payload = _poly_payload(poly)
        payload["h"] = h

    payload["family"] = family
    payload["n"] = n

    if fmt == "json":
        inputs = {"family": family, "h": args.h, "n": n}
        _write_envelope("closed", inputs, payload, None, started)
    else:
        where = f"h = {args.h}, n = {n}" if args.h is not None else f"n = {n}"
        print(f"family: {family}  ({where})")
        _print_poly_text(payload)
    return EXIT_OK


# -- sweep ---------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    from .extremal import sweep

    started = time.perf_counter()
    fmt = _default_format(args.format, ("json", "csv"), "json")
    sizes = _parse_sizes(args.sizes)
    report = sweep(sizes, dedupe_reversal=args.dedupe_reversal, jobs=args.jobs)

    if fmt == "csv":
        with _output(args.out) as fh:
            report.write_csv(fh)
    else:
        inputs = {
            "sizes": args.sizes,
            "dedupe_reversal": args.dedupe_reversal,
            "jobs": args.jobs,
        }
        _write_envelope("sweep", inputs, report.to_json(), "transfer", started, args.out)
    return EXIT_OK if report.all_ok else EXIT_VERIFY_FAILED


# -- verify --------------------------------------------------------------------

_SUITE_DEFAULTS = {
    "engines": ((3, 8), (1, 4)),
    "recurrences": ((3, 8), (0, 8)),
    "lemmas": ((4, 8), (2, 5)),
}


def _parse_range(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError as exc:
        raise SpecError(f"bad {what} range {text!r}, expected A..B") from exc
    if b < a:
        raise SpecError(f"empty {what} range {text!r}")
    return a, b


def cmd_verify(args: argparse.Namespace) -> int:
    from .extremal import SWEEP_CAP
    from .verification import (
        RECURRENCE_VERTEX_CAP,
        count_chains,
        largest_chain,
        recurrence_vertices,
        verify_dominance,
        verify_engines,
        verify_recurrences,
    )

    started = time.perf_counter()
    fmt = _default_format(args.format, ("text", "json"), "text")
    suites = ["engines", "recurrences", "lemmas"] if args.suite == "all" else [args.suite]

    # Every range is measured before any suite runs, so that an oversized
    # range is refused at once, also when it comes last in ``verify all``.
    plan = []
    for suite in suites:
        default_h, default_n = _SUITE_DEFAULTS[suite]
        h_lo, h_hi = _parse_range(args.h, "h") if args.h else default_h
        n_lo, n_hi = _parse_range(args.n, "n") if args.n else default_n
        if suite == "lemmas":
            n_lo = max(n_lo, 2)  # a deletion lemma needs two cycles
        hs = range(h_lo, h_hi + 1)
        ns = range(n_lo, n_hi + 1)
        if suite == "recurrences":
            largest, total = recurrence_vertices(hs, ns)
            refuse_past(largest, CHAIN_VERTEX_CAP, "verify recurrences chain of", "vertices")
            refuse_past(total, RECURRENCE_VERTEX_CAP, "verify recurrences over", "vertices in all")
        else:
            # engines runs the recursion on every chain, lemmas the walk
            refuse_past(count_chains(hs, ns), SWEEP_CAP, f"verify {suite} over", "chains")
            refuse_past(largest_chain(hs, ns), MEMO_VERTEX_CAP, f"verify {suite} chain of", "vertices")
        plan.append((suite, hs, ns))

    run = {"engines": verify_engines, "recurrences": verify_recurrences, "lemmas": verify_dominance}
    results = [r for suite, hs, ns in plan for r in run[suite](hs, ns)]

    all_passed = all(r.passed for r in results)
    if fmt == "json":
        inputs = {"suite": args.suite, "h": args.h, "n": args.n}
        result = {"results": [r.to_json() for r in results], "all_passed": all_passed}
        _write_envelope("verify", inputs, result, None, started)
    else:
        for r in results:
            detail = f"  [{r.detail}]" if r.detail else ""
            print(f"{r.status.upper()} {r.name} (checked {r.checked}){detail}")
            if r.counterexample is not None:
                print(f"     counterexample: {json.dumps(r.counterexample)}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# -- wiring ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincacti",
        description="Exact independence polynomials of chain cactus graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="evaluate one chain spec")
    p.add_argument("spec", help='chain spec, e.g. "6,6,6/2" or "6^4/1,2"')
    p.add_argument(
        "--engine",
        choices=("transfer", "recursive", "brute"),
        default="transfer",
    )
    p.add_argument(
        "--delete",
        metavar="LABELS",
        help='vertices to remove, e.g. "n:2" or "3:1,n:4" (cycle:position)',
    )
    p.add_argument("--no-crosscheck", action="store_true")
    p.add_argument("--format", choices=("text", "json"))
    p.set_defaults(func=cmd_poly)

    c = sub.add_parser("closed", help="closed-form family polynomials")
    c.add_argument("family", choices=("path", "cycle", "ortho", "meta"))
    c.add_argument("--h", type=int, help="cycle size for ortho/meta")
    c.add_argument("--n", type=int, required=True, help="vertices (path/cycle) or chain length")
    c.add_argument("--format", choices=("text", "json"))
    c.set_defaults(func=cmd_closed)

    s = sub.add_parser("sweep", help="all canonical position sequences for a size list")
    s.add_argument("sizes", help='cycle sizes, e.g. "6,6,6" or "6^5"')
    s.add_argument("--dedupe-reversal", action="store_true")
    s.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (at least 1), one per first-position subtree at most",
    )
    s.add_argument("--format", choices=("json", "csv"))
    s.add_argument("--out", metavar="FILE")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("suite", choices=("engines", "recurrences", "lemmas", "all"))
    v.add_argument("--h", metavar="A..B", help="cycle size range")
    v.add_argument("--n", metavar="A..B", help="chain length range")
    v.add_argument("--format", choices=("text", "json"))
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact counts are printed as decimal strings of any length; lift the
    # int-to-str digit limit where the interpreter has one (3.10.7+).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VertexCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        import traceback  # only here, so that every run does not pay for the import

        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
