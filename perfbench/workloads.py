"""The benchmark's workloads: fixed lists of ``chaincacti`` CLI calls and the
checks their outputs must pass.

Every call writes JSON, and a check reads only the fields it needs, so that
fields added to the envelope later do not break it.  Long specs are written as
explicit comma lists, the one spec grammar every version accepts.

Why these three workloads:

- ``engines``: three-engine agreement (a scaled-down acceptance criterion 1)
  on the chains with the largest graphs of its range, 5- and 6-cycles.  The
  pure counting kernel dominates, mostly through the vertex deletion
  identity, so a faster kernel shows here.
- ``dominance``: deletion dominance and a full sweep.  No kernel calls; the
  cost is many small polynomial products, spec validation and repeated
  deletion polynomials, so a faster transfer scan shows here and a faster
  kernel must not.
- ``large``: a few very large single queries.  Brute force on the largest
  chain the vertex cap allows, and polynomials of degree 1,200 to 1,600 with
  big coefficients, so fast multiplication of large polynomials shows here.

Each op list takes 6 to 10 s on a 2-core 2.1 GHz Xeon VM, so that a run fits
several passes and reports per-op medians: on that shared machine one op
varies by up to a quarter from one pass to the next.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from chaincacti import enumerate_specs, meta_poly, ortho_poly

# A chain at the 32-vertex brute-force cap, with 4,623,514 independent sets.
# It is the same for every seed: on a 2-core Xeon VM, other 32-vertex chains
# with set counts within 0.05% of it took brute force up to 1.5 times as long.
LARGE_BRUTE = "8,8,8,8,4/2,2,2"


def _commas(value: int, count: int) -> str:
    return ",".join([str(value)] * count)


def _uniform(h: int, n: int, k: int) -> str:
    """Spec of n cycles of size h with every internal position k."""
    return f"{_commas(h, n)}/{_commas(k, n - 2)}"


@dataclass(frozen=True)
class Step:
    """CLI calls whose outputs are checked together.

    ``check`` gets the parsed JSON output of each call and returns an error
    message, or None when the outputs are right.
    """

    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[dict]], str | None]

    def error(self, outputs: list[bytes]) -> str | None:
        """What is wrong with the calls' outputs, or None."""
        try:
            return self.check([json.loads(out) for out in outputs])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    #: canonical chains the op list checks, the numerator of chains_per_s;
    #: on ``large`` each step checks one chain two ways
    chains: int


def _verify_passed(outputs: list[dict]) -> str | None:
    statuses = [r["status"] for r in outputs[0]["result"]["results"]]
    if not statuses:
        return "no results"
    failed = [s for s in statuses if s != "pass"]
    return f"{len(failed)} of {len(statuses)} results not pass" if failed else None


def _same_coefficients(outputs: list[dict]) -> str | None:
    first, second = (o["result"]["coefficients"] for o in outputs)
    if first != second:
        return f"coefficients differ ({len(first)} against {len(second)} terms)"
    return None


def _sweep_extremes(h: int, n: int) -> Callable[[list[dict]], str | None]:
    low = ortho_poly(h, n).eval_at_one()
    high = meta_poly(h, n).eval_at_one()

    def check(outputs: list[dict]) -> str | None:
        result = outputs[0]["result"]
        got = (int(result["min"]["psi"]), int(result["max"]["psi"]))
        if got != (low, high):
            return f"sweep psi extremes {got}, expected {(low, high)}"
        return None

    return check


def _chain_count(h_values: range, n_values: range) -> int:
    return sum(
        sum(1 for _ in enumerate_specs(sizes))
        for n in n_values
        for sizes in itertools.product(h_values, repeat=n)
    )


def build_workload(name: str, seed: int) -> Workload:
    """The workload's op list, its steps in an order drawn from the seed."""
    rng = random.Random(seed)
    if name == "engines":
        steps = [
            Step((("verify", "engines", "--h", "5..6", "--n", "1..4", "--format", "json"),), _verify_passed),
            Step((("verify", "recurrences", "--format", "json"),), _verify_passed),
        ]
        chains = _chain_count(range(5, 7), range(1, 5))
    elif name == "dominance":
        steps = [
            Step((("verify", "lemmas", "--h", "4..8", "--n", "2..4", "--format", "json"),), _verify_passed),
            Step((("sweep", _commas(8, 8), "--format", "json"),), _sweep_extremes(8, 8)),
        ]
        chains = _chain_count(range(4, 9), range(2, 5)) + 4 ** 6
    elif name == "large":
        brute = LARGE_BRUTE
        steps = [
            Step(
                (
                    ("poly", brute, "--engine", "brute", "--format", "json"),
                    ("poly", brute, "--engine", "recursive", "--no-crosscheck", "--format", "json"),
                ),
                _same_coefficients,
            ),
            Step(
                (
                    ("poly", _uniform(6, 400, 2), "--format", "json"),
                    ("closed", "meta", "--h", "6", "--n", "400", "--format", "json"),
                ),
                _same_coefficients,
            ),
            Step(
                (
                    ("poly", _uniform(40, 80, 1), "--format", "json"),
                    ("closed", "ortho", "--h", "40", "--n", "80", "--format", "json"),
                ),
                _same_coefficients,
            ),
        ]
        chains = len(steps)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(steps)
    return Workload(tuple(steps), chains)


WORKLOADS = ("engines", "dominance", "large")
