"""Benchmark of the obg solver: one workload, one seed, one run.

    python3 benchmark/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every round runs in a fresh worker process, one at a time
(see ``worker.py``).  Rounds repeat the same operations until
``--seconds`` have passed (at least three rounds); the first also checks
every output apart from the solver, after everything it measures.
Library calls and CLI runs are timed by each operation's fastest round;
set-up time and peak memory are medians over the rounds.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced, and it carries the per-layer metrics, the traced
run's own solve time and the tracing overhead.  ``--quick`` runs tiny
instances with every check on, for the benchmark's own tests.
Everything the run writes goes to ``bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("decide", "witness", "ladder", "paut")
MIN_ROUNDS = 3          # rounds of an untraced run, at least
MIN_TRACED_PAIRS = 2    # untraced-traced pairs of a traced run, at least
QUICK_ROUNDS = 2
RUN_LIMIT_S = 150

END_TO_END = {"setup_s": "s", "solve_s": "s", "instance_p50_ms": "ms",
              "cli_s": "s", "peak_rss_mib": "MiB"}


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def run_worker(spec: dict, deadline: float) -> dict:
    """Run one round in a fresh process and return its JSON result."""
    spec_file = Path(spec["outdir"]) / f"spec-round{spec['round']}.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    command = [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_file)]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"round {spec['round']} ran past the time limit")
    if process.returncode != 0 or not stdout.strip():
        raise BenchmarkError(f"round {spec['round']} crashed:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def fastest_calls(rounds: list[dict]) -> list[float]:
    """Each library call's fastest time over the rounds.

    Every round makes the same calls on the same inputs in a fresh
    process, so a call's times differ between rounds only by what the
    host does meanwhile; on a shared host that slows whole stretches of a
    round by up to 1.6 times.
    """
    return [min(r["call_times"][label] for r in rounds)
            for label in rounds[0]["call_times"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "obg" / "__init__.py").is_file():
        print(f"error: no obg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    outdir = ROOT / "bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "quick": args.quick, "outdir": str(outdir)}

    try:
        rounds: list[dict] = []
        measure_start = time.monotonic()
        kinds = (False, True) if args.trace else (False,)
        while True:
            for traced in kinds:
                spec = dict(base, check=not rounds, trace=traced, round=len(rounds))
                if rounds:
                    spec.update(digests=rounds[0]["digests"],
                                over_budget=rounds[0]["over_budget"])
                rounds.append(run_worker(spec, deadline))
            if args.quick:
                if len(rounds) >= QUICK_ROUNDS:
                    break
                continue
            elapsed = time.monotonic() - measure_start
            per_step = elapsed * len(kinds) / len(rounds)
            least = 2 * MIN_TRACED_PAIRS if args.trace else MIN_ROUNDS
            if len(rounds) >= least and elapsed + per_step > args.seconds:
                break
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checked = rounds[0]
    problems = [p for r in rounds for p in r["problems"]]
    plain = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    plain_calls = fastest_calls(plain)
    # Per CLI operation the fastest of its runs, then the mean over the
    # operations, which differ in cost.
    labels = sorted({label for r in plain for label in r["cli_times"]})
    cli_fastest = [min(t for r in plain for t in r["cli_times"].get(label, []))
                   for label in labels]
    values = {
        "setup_s": median([r["setup_s"] for r in plain]),
        "solve_s": sum(plain_calls),
        "instance_p50_ms": 1000 * median(plain_calls),
        "cli_s": sum(cli_fastest) / len(cli_fastest),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    absent: list[str] = []
    if args.trace:
        sys.path.insert(0, str(BENCH_DIR))
        from tracer import METRICS

        first = traced[0]["layers"]
        absent = traced[0]["absent"]
        metrics = {}
        for name, (unit, _, _) in METRICS.items():
            value = first[name] if unit == "count" else \
                median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
        traced_solve = sum(fastest_calls(traced))
        metrics["trace.solve_s"] = {"value": traced_solve, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_solve / values["solve_s"] - 1.0), "unit": "%"}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "python": sys.version.split()[0],
        "cpus": os.cpu_count(), "rounds": len(rounds),
        "over_budget": checked["over_budget"], "notes": checked["notes"],
        "oracle_checked_games": checked["oracle_games"],
        "absent": absent, "problems": problems,
        "samples": {key: [r[key] for r in rounds] for key in ("setup_s", "peak_rss_mib")},
        "call_samples": [r["call_times"] for r in rounds],
        "cli_samples": [r["cli_times"] for r in rounds],
        "metrics": metrics,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(checked['over_budget'])} instances over a budget, "
          f"{checked['oracle_games']} oracle cross-checks, notes {checked['notes']}")
    if absent:
        print(f"absent (not in this version of the program): {', '.join(absent)}")
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
