"""Run one ``chaincacti`` CLI call with a span around every call into a layer.

Usage: python3 perfbench/traced.py <chaincacti CLI arguments...>

Layers are the package's modules.  Their public functions, plus
``kernels.count_independent_sets`` and ``UniPoly.__mul__``, are wrapped from
outside: the package is not changed.  Modules import names with
``from .x import y``, so each function is replaced at every module binding
that holds it.  Generator functions are not wrapped, because their body runs
after the call returns; their time counts toward the caller.

A span has a name, a start, an end and a parent.  Spans are folded into totals
as they close, since a run opens millions of them:

- per span name: calls, and busy time (outermost calls only, so recursion
  does not count twice);
- per layer: busy time (outermost spans of the layer) and self time (span
  time minus the time covered by its direct child spans);
- exact work counters, named as the benchmark reports them.

The call's exit code is passed on.  The totals go to stderr as one JSON line
starting with TRACE_PREFIX.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path

TRACE_PREFIX = "perfbench-trace "

# Modules whose public functions are wrapped; a module a later version
# removes is skipped.
LAYERS = ("polynomial", "chain_model", "closed_forms", "engine", "extremal", "verification")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, busy seconds, open calls]
        self.layers: dict[str, list] = {}  # layer -> [busy seconds, self seconds, open spans]
        self.counts: Counter[str] = Counter()
        self.max_degree = -1
        self.deletion_keys: set = set()
        self._stack: list[float] = []  # child time of each open span

    def wrap(self, name: str, layer: str, fn, count=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0])
        lay = self.layers.setdefault(layer, [0.0, 0.0, 0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            rec[2] += 1
            lay[2] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                lay[1] += took - child
                rec[0] += 1
                rec[2] -= 1
                if not rec[2]:
                    rec[1] += took
                lay[2] -= 1
                if not lay[2]:
                    lay[0] += took
            if count is not None:
                count(args, kwargs, result)
            return result

        return span

    def count_sets(self, args, kwargs, result) -> None:
        self.counts["kernels.sets"] += sum(result)

    def count_mul(self, args, kwargs, result) -> None:
        a, b = args
        self.counts["polynomial.mul.coeff_products"] += len(a.coeffs) * len(b.coeffs)
        self.max_degree = max(self.max_degree, len(result.coeffs) - 1)

    def count_deletion(self, args, kwargs, result) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        try:
            self.deletion_keys.add(key)
        except TypeError:
            self.deletion_keys.add(repr(key))

    def to_json(self) -> dict:
        return {
            "calls": {name: rec[0] for name, rec in self.spans.items()},
            "busy": {name: rec[1] for name, rec in self.spans.items()},
            "layer_busy": {layer: lay[0] for layer, lay in self.layers.items()},
            "self": {layer: lay[1] for layer, lay in self.layers.items()},
            "counts": self.counts,
            "max_degree": self.max_degree,
            "deletion_distinct": len(self.deletion_keys),
        }


def _rebind(old, new) -> None:
    """Replace ``old`` by ``new`` in every loaded chaincacti module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "chaincacti" or mod_name.startswith("chaincacti.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    import chaincacti

    for info in pkgutil.iter_modules(chaincacti.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"chaincacti.{info.name}")

    kernels = sys.modules.get("chaincacti.kernels")
    kernel = getattr(kernels, "count_independent_sets", None)
    if kernel is not None:
        _rebind(kernel, tracer.wrap("kernels.count_independent_sets", "kernels", kernel, tracer.count_sets))

    counters = {
        "engine.indpoly_chain_minus_last_vertex": tracer.count_deletion,
    }
    for layer in LAYERS:
        mod = sys.modules.get(f"chaincacti.{layer}")
        if mod is None:
            continue
        for attr, fn in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not callable(fn)
                or isinstance(fn, type)
                or getattr(fn, "__module__", None) != mod.__name__
                or inspect.isgeneratorfunction(inspect.unwrap(fn))
            ):
                continue
            name = f"{layer}.{attr}"
            _rebind(fn, tracer.wrap(name, layer, fn, counters.get(name)))

    poly_cls = getattr(chaincacti, "UniPoly", None)
    mul = getattr(poly_cls, "__mul__", None)
    if mul is not None:
        poly_cls.__mul__ = tracer.wrap("polynomial.mul", "polynomial", mul, tracer.count_mul)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    install(tracer)
    from chaincacti import cli

    code = 1
    try:
        code = tracer.wrap("cli.main", "cli", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps(tracer.to_json()), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
