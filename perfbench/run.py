#!/usr/bin/env python3
"""Benchmark of the chaincacti CLI: end to end, and layer by layer in a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload engines --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): engines, dominance, large.  Each is a fixed list
of ``python -m chaincacti ...`` processes run from ``src/``, the pure path the
test suite runs.  They run one after another, a closed loop with one client.
The inputs are fixed; the seed picks the order of the steps.  Every output is checked; a wrong exit code or a failed
check counts the op as failed, and the run goes on.

``--trace 0`` reports the end-to-end metrics, with tracing off:

- setup_s: median wall time of a trivial call (``poly 3``), from process
  start to exit, over a few launches before each pass;
- run_s: wall time to complete the op list, the median over the passes
  that fit in ``--seconds``;
- chains_per_s: canonical chains checked per second, chains / run_s;
- peak_rss_mb: the largest max-RSS of any op process, from wait4.

Failed ops over attempted ops (fail_ratio) is printed in the summary and
carried by the ``attempted`` and ``failed`` keys of the result.

``--trace 1`` runs the op list once untraced and twice through traced.py,
which wraps each layer's public functions, then times the layers on fixed
inputs (micro.py), and reports the per-layer metrics.  This is a fixed amount
of work; ``--seconds`` does not apply.  The exact work counters must match
between the two traced passes, or the run is not correct.

Ops are spawned by launcher.py (see there why).  The environment (cores,
Python, OS, counting kernel, commit) is printed first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics, which BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(SRC))
try:
    import micro
    import workloads
    from traced import TRACE_PREFIX
except ImportError as exc:  # no chaincacti package beside the benchmark
    sys.exit(f"error: cannot import chaincacti from {SRC}: {exc}")

# Every run ends well inside the 180 s a run may take; an op still running
# then is killed and counted as failed.
RUN_BUDGET_S = 165.0
SETUP_CALL = ("poly", "3")
SETUP_EXPECT = b"psi = 4"
SETUP_LAUNCHES_PER_PASS = 4
# Counters that count work exactly, so two traced runs must agree on them.
EXACT_COUNTERS = (
    "kernels.sets",
    "polynomial.mul.coeff_products",
    "engine.deletion.calls",
    "chain_model.validate.calls",
)


@dataclass
class OpRun:
    call: tuple[str, ...]
    code: int | None  # None: killed at the deadline
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class PassResult:
    ops: list[OpRun] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


class Launcher:
    """Client of launcher.py, which spawns each op and reports its rusage.

    The launcher's memory stays small, so the children's max-RSS is their
    own and not this process's (see launcher.py).
    """

    def __init__(self, env: dict):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            )

    def close(self) -> None:
        self.sock.close()
        self.proc.wait()

    def _reply(self) -> dict:
        reply = json.loads(self.sock.recv(4096) or b"{}")
        if "error" in reply or not reply:
            raise RuntimeError(f"launcher: {reply.get('error', 'gone')}")
        return reply

    def run(self, call: tuple[str, ...], deadline: float, traced: bool = False) -> OpRun:
        """Run one CLI call to its end, reading its output as it comes."""
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), *call]
        else:
            argv = [sys.executable, "-m", "chaincacti", *call]
        pipes = [os.pipe() for _ in range(2)]
        started = time.perf_counter()
        socket.send_fds(self.sock, [json.dumps(argv).encode()], [w for _, w in pipes])
        for _, w in pipes:
            os.close(w)
        pid = self._reply()["pid"]
        chunks: dict[int, list[bytes]] = {r: [] for r, _ in pipes}
        killed = False
        with selectors.DefaultSelector() as sel:
            for r in chunks:
                sel.register(r, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        ended = self._reply()
        wall = time.perf_counter() - started
        for r in chunks:
            os.close(r)
        out, err = (b"".join(chunks[r]) for r, _ in pipes)
        code = None if killed else os.waitstatus_to_exitcode(ended["status"])
        return OpRun(call, code, wall, ended["maxrss_kb"] / 1024, out, err)


def report_failure(op: OpRun, why: str) -> None:
    tail = op.stderr.decode(errors="replace").strip().splitlines()[-1:]
    print(f"op failed: {' '.join(op.call)[:80]}: {why} {tail}", file=sys.stderr)


def run_pass(launcher: Launcher, workload, deadline: float, traced: bool) -> PassResult:
    result = PassResult()
    for step in workload.steps:
        if time.monotonic() >= deadline:
            break
        runs = [launcher.run(call, deadline, traced) for call in step.calls]
        result.ops.extend(runs)
        result.attempted += len(runs)
        bad = [op for op in runs if op.code != 0]
        why = f"exit code {bad[0].code}" if bad else step.error([op.stdout for op in runs])
        if why:
            result.failed += len(runs)
            report_failure(runs[-1], why)
    return result


def setup_times(launcher: Launcher, deadline: float) -> tuple[list[float], int]:
    """Wall times of the trivial call, and how many of its launches failed."""
    times, failed = [], 0
    for _ in range(SETUP_LAUNCHES_PER_PASS):
        op = launcher.run(SETUP_CALL, deadline)
        if op.code != 0 or SETUP_EXPECT not in op.stdout:
            failed += 1
            report_failure(op, "trivial call gave a wrong answer")
        times.append(op.wall_s)
    return times, failed


def op_medians(passes: list[PassResult]) -> list[float]:
    """Each op's median wall time over the passes that completed it."""
    longest = max(len(p.ops) for p in passes)
    return [
        statistics.median(p.ops[i].wall_s for p in passes if i < len(p.ops))
        for i in range(longest)
    ]


def end_to_end(launcher: Launcher, workload, seconds: int, deadline: float):
    setup: list[float] = []
    failed = 0
    passes: list[PassResult] = []
    measured = 0.0
    while time.monotonic() < deadline:
        times, setup_failed = setup_times(launcher, deadline)
        setup += times
        failed += setup_failed
        p = run_pass(launcher, workload, deadline, traced=False)
        passes.append(p)
        measured += p.wall_s
        if measured + p.wall_s > seconds:
            break
    attempted = len(setup) + sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    run_s = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "chains_per_s": workload.chains / run_s,
        "peak_rss_mb": max(op.rss_mb for p in passes for op in p.ops),
    }
    return metrics, attempted, failed, passes


def trace_totals(p: PassResult) -> dict:
    """Sum the traced processes' span totals over one pass."""
    total: dict = {"calls": {}, "busy": {}, "layer_busy": {}, "self": {}, "counts": {}}
    total["max_degree"] = -1
    total["deletion_distinct"] = 0
    for op in p.ops:
        lines = [
            line for line in op.stderr.decode(errors="replace").splitlines()
            if line.startswith(TRACE_PREFIX)
        ]
        if not lines:
            continue
        data = json.loads(lines[-1][len(TRACE_PREFIX):])
        for key in ("calls", "busy", "layer_busy", "self", "counts"):
            for name, value in data[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["max_degree"] = max(total["max_degree"], data["max_degree"])
        total["deletion_distinct"] += data["deletion_distinct"]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict, chains: int, out_bytes: int) -> dict[str, float]:
    calls, busy, counts = t["calls"], t["busy"], t["counts"]
    layer_busy, self_s = t["layer_busy"], t["self"]

    def prefixed(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    kernel = "kernels.count_independent_sets"
    deletion = "engine.indpoly_chain_minus_last_vertex"
    return {
        "kernels.calls": calls.get(kernel, 0),
        "kernels.busy_s": busy.get(kernel, 0.0),
        "kernels.sets": counts.get("kernels.sets", 0),
        "kernels.sets_per_s": _ratio(counts.get("kernels.sets", 0), busy.get(kernel, 0.0)),
        "engine.bruteforce.busy_s": busy.get("engine.indpoly_bruteforce", 0.0),
        "engine.recursive.busy_s": busy.get("engine.indpoly_recursive", 0.0),
        "engine.chain.calls": calls.get("engine.indpoly_chain", 0),
        "engine.chain.busy_s": busy.get("engine.indpoly_chain", 0.0),
        "engine.deletion.calls": calls.get(deletion, 0),
        "engine.deletion.busy_s": busy.get(deletion, 0.0),
        "engine.deletion.distinct_ratio": _ratio(t["deletion_distinct"], calls.get(deletion, 0)),
        "engine.self_s": self_s.get("engine", 0.0),
        "polynomial.mul.calls": calls.get("polynomial.mul", 0),
        "polynomial.mul.busy_s": busy.get("polynomial.mul", 0.0),
        "polynomial.mul.coeff_products": counts.get("polynomial.mul.coeff_products", 0),
        "polynomial.mul.max_degree": max(t["max_degree"], 0),
        "chain_model.validate.calls": calls.get("chain_model.validate", 0),
        "chain_model.validate.per_chain": calls.get("chain_model.validate", 0) / chains,
        "chain_model.build.calls": calls.get("chain_model.build", 0),
        "chain_model.busy_s": layer_busy.get("chain_model", 0.0),
        "closed_forms.calls": prefixed("closed_forms."),
        "closed_forms.busy_s": layer_busy.get("closed_forms", 0.0),
        "extremal.sweep.busy_s": busy.get("extremal.sweep", 0.0),
        "extremal.verdicts.calls": prefixed("extremal.verify_"),
        "extremal.self_s": self_s.get("extremal", 0.0),
        "verification.busy_s": layer_busy.get("verification", 0.0),
        "verification.self_s": self_s.get("verification", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.out_bytes": out_bytes,
    }


def per_layer(launcher: Launcher, workload, deadline: float):
    plain = run_pass(launcher, workload, deadline, traced=False)
    traced = [run_pass(launcher, workload, deadline, traced=True) for _ in range(2)]
    attempted = plain.attempted + sum(p.attempted for p in traced)
    failed = plain.failed + sum(p.failed for p in traced)

    out_bytes = sum(len(op.stdout) for op in plain.ops)
    first, second = (layer_metrics(trace_totals(p), workload.chains, out_bytes) for p in traced)
    for name in EXACT_COUNTERS:
        if first[name] != second[name]:
            print(f"counter mismatch: {name} {first[name]} != {second[name]}", file=sys.stderr)
            failed += 1
    # Times differ between the two traced passes: report their mean.
    metrics = {name: v if v == second[name] else (v + second[name]) / 2 for name, v in first.items()}
    metrics["trace.overhead_ratio"] = statistics.mean(p.wall_s for p in traced) / plain.wall_s
    metrics.update(micro.layer_metrics())
    return metrics, attempted, failed, [plain]


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[len("ref: "):]).read_text().strip()
    except OSError:
        return "unknown"
    return ref[:12]


def environment() -> str:
    import chaincacti.kernels

    backend = getattr(chaincacti.kernels, "BACKEND", "n/a")
    return (
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"os={platform.system()}-{platform.release()} kernel_backend={backend} "
        f"commit={commit_id()}"
    )


def declared_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    units = declared_units(args.trace)
    for var in [v for v in os.environ if v.startswith("CHAINCACTI_")]:
        del os.environ[var]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    launcher = Launcher(env)
    try:
        return measure(launcher, args, units, deadline)
    finally:
        launcher.close()


def measure(launcher: Launcher, args, units: dict[str, str], deadline: float) -> int:
    # One untimed launch, so that compiling .pyc files is not timed.
    warm = launcher.run(SETUP_CALL, deadline)
    if warm.code != 0:
        print(f"error: the CLI does not start: {warm.stderr.decode(errors='replace')}", file=sys.stderr)
        return 2

    workload = workloads.build_workload(args.workload, args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env: {environment()}")
    if args.trace:
        values, attempted, failed, passes = per_layer(launcher, workload, deadline)
    else:
        values, attempted, failed, passes = end_to_end(launcher, workload, args.seconds, deadline)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    print(f"{len(passes)} untraced pass(es); op medians:")
    for wall, op in zip(op_medians(passes), passes[0].ops):
        print(f"  {wall:9.3f} s {op.rss_mb:7.1f} MB {len(op.stdout):9d} B  {' '.join(op.call)[:70]}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:16.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:16.6g} ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
