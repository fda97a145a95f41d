"""Run the standing mutation checks: each mutant must make its tests fail.

    python tools/mutants.py [LIST]

Each mutant in LIST (default: tools/mutants.json next to this script) names a
file, an exact ``old`` text that occurs once in it, the ``new`` text that
replaces it, and the pytest node ids that must fail once it is replaced.  One
mutant at a time, ``src/`` and ``tests/`` are copied to a temporary
directory, the replacement is made there, and only the mutant's tests run, in
a subprocess.  A mutant whose tests pass survives.  The exit code is 1 if any
mutant survives or cannot be applied, else 0.  Needs only pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_LIST = Path(__file__).resolve().parent / "mutants.json"


def run_mutant(mutant: dict) -> str:
    """``killed``, ``survived``, or why the mutant could not be run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant["file"]
        text = target.read_text()
        if text.count(mutant["old"]) != 1:
            return f"not applied: `old` occurs {text.count(mutant['old'])} times"
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["tests"]],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
        )
    # pytest exits 1 when a test fails and 2 when collection fails
    if result.returncode in (1, 2):
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"pytest exited {result.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("list", nargs="?", default=DEFAULT_LIST, type=Path)
    args = parser.parse_args(argv)
    mutants = json.loads(args.list.read_text())
    started = time.perf_counter()
    failed = 0
    for mutant in mutants:
        t = time.perf_counter()
        outcome = run_mutant(mutant)
        failed += outcome != "killed"
        print(f"{outcome:>9}  {time.perf_counter() - t:5.1f} s  {mutant['name']}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} killed in {time.perf_counter() - started:.1f} s")
    return 1 if failed or not mutants else 0


if __name__ == "__main__":
    sys.exit(main())
