"""Time ``python -m obg.cli`` start to finish on two trees, and list what it loads.

Every ``obg ...`` command line of the README is run as a fresh
``python -m obg.cli`` process in each tree, on that tree's own fixtures,
``--runs`` times per tree.  Runs alternate between the trees (the first
tree switches every round), so load on the host falls on both alike.
For each command the script prints, per tree, the wall time's minimum,
quartiles and median in milliseconds, whether both trees printed the
same stdout and exit code, and the ``obg`` modules the command loads
(read from ``sys.modules`` in one extra run per tree).  Run from the
repository root, for example with the parent commit unpacked elsewhere:

    python3 scripts/startup_probe.py --parent ../parent --change . --runs 20
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# Runs obg.cli as ``python -m`` does, then prints the obg submodules loaded.
MODULES_RUNNER = """
import runpy, sys
try:
    runpy.run_module("obg.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(" ".join(sorted(m[4:] for m in sys.modules if m.startswith("obg."))), file=sys.stderr)
"""


def readme_commands() -> list[list[str]]:
    lines = README.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("obg ")]


def run(tree: Path, argv: list[str], *entry: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *(entry or ("-m", "obg.cli")), *argv], cwd=tree,
                          env=env, capture_output=True, text=True, timeout=600)


def loaded_modules(tree: Path, argv: list[str]) -> str:
    """The ``obg`` submodules one run of the command loads, space-separated."""
    return run(tree, argv, "-c", MODULES_RUNNER).stderr.splitlines()[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree to compare against")
    parser.add_argument("--change", type=Path, required=True, help="tree under test")
    parser.add_argument("--runs", type=int, default=20,
                        help="runs of each command in each tree (default 20)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error(f"--runs must be at least 2, got {args.runs}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "obg" / "cli.py").is_file():
            parser.error(f"--{name} {tree} holds no src/obg/cli.py")

    commands = readme_commands()
    times: dict[tuple[int, str], list[float]] = {}
    results: dict[tuple[int, str], tuple[int, str]] = {}
    for round_ in range(args.runs):
        order = list(trees) if round_ % 2 == 0 else list(reversed(trees))
        for i, argv in enumerate(commands):
            for side in order:
                started = time.perf_counter()
                done = run(trees[side], argv)
                times.setdefault((i, side), []).append(time.perf_counter() - started)
                results[(i, side)] = (done.returncode, done.stdout)

    print(f"{args.runs} runs per tree; wall time of python -m obg.cli in ms")
    print(f"{'tree':<8}{'min':>8}{'q1':>8}{'median':>8}{'q3':>8}  modules loaded")
    for i, argv in enumerate(commands):
        same = results[(i, "parent")] == results[(i, "change")]
        print(f"obg {shlex.join(argv)}  (exit {results[(i, 'change')][0]}, "
              f"{'same' if same else 'DIFFERENT'} output on both trees)")
        for side, tree in trees.items():
            samples = times[(i, side)]
            q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
            row = "".join(f"{1000 * t:>8.1f}" for t in (min(samples), q1, median, q3))
            print(f"{side:<8}{row}  {loaded_modules(tree, argv)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
