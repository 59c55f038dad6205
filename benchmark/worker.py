"""One round of one workload, in a fresh process.

``run.py`` starts this script once per round, one at a time, so the
program's module-level memo caches start empty in every round without
the benchmark naming them.  The JSON file named by the only argument
says which workload, seed and round.  Every round times set-up (import,
instance generation, writing the CLI input files), the library calls
and the CLI runs.  The first round (``check``) then runs every
independent check, after everything it measures; the fingerprint of each
result, and the instances whose call or checks exceeded a budget, go to
the later rounds, which compare every result with the checked one.  An
instance counts as failed if its call raises ``BudgetExceededError`` or
its checks did so in the first round.  With ``trace`` set, the calls run
under the tracer, then the traced-only extra work and the CLI runs
(in-process, through ``obg.cli.main``) are recorded apart from them.

The result is one JSON line on standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

CLI_TIMEOUT_S = 120
# Each CLI operation runs this many times a round: start-up time is noisy.
CLI_REPEATS = 5


def run_cli(root: Path, argv: list[str], in_process: bool) -> tuple[int, str, str, float]:
    if in_process:
        from obg import cli

        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - started
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "obg.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - started


def fingerprint(instance, result) -> str:
    return hashlib.sha256(instance.digest(result).encode("utf-8")).hexdigest()


def solve(instance, budget_error):
    """Run the timed library call; return (result or None, error text, seconds)."""
    started = time.perf_counter()
    try:
        result = instance.call()
    except budget_error as exc:
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - started
    return result, None, time.perf_counter() - started


def check_results(instances, results, errors, allowance, budget_error, out) -> None:
    """Check every result apart from the solver.

    Fills ``out`` with the result fingerprints and, by label, the budget
    errors of the calls (``errors``) and of the checks that exceeded one.
    """
    digests, over_budget = {}, dict(errors)
    for instance in instances:
        result = results[instance.label]
        if result is None:
            continue
        digests[instance.label] = fingerprint(instance, result)
        try:
            out["problems"].extend(instance.check(result, allowance))
        except budget_error as exc:
            over_budget[instance.label] = f"while checking: {type(exc).__name__}: {exc}"
    out.update(digests=digests, over_budget=over_budget, oracle_games=allowance.games)


def cli_round(root: Path, cli_ops, results, problems,
              in_process: bool) -> tuple[dict[str, list[float]], int]:
    """Run each CLI operation; return the times of those that succeeded, by label,
    and the number of failures."""
    times: dict[str, list[float]] = {}
    failed = 0
    for instance, argv in cli_ops * CLI_REPEATS:
        code, stdout, stderr, seconds = run_cli(root, argv, in_process)
        result = results[instance.label]
        if result is None:  # the library call failed: the CLI must report the budget
            if code == 3 and stderr.startswith("budget exceeded"):
                failed += 1
            else:
                problems.append(f"{instance.label}: library failed but CLI exited {code}")
            continue
        problems.extend(instance.cli_check(code, stdout, result))
        times.setdefault(instance.label, []).append(seconds)
    return times, failed


def main() -> int:
    started = time.perf_counter()
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import checks
    import workloads
    from obg import cli  # noqa: F401  (bound before the tracer patches modules)
    from obg.errors import BudgetExceededError

    workload = workloads.build(spec["workload"], spec["seed"], spec["quick"])
    sizes = workloads.QUICK if spec["quick"] else workloads.FULL
    directory = Path(spec["outdir"]) / f"round{spec['round']}"
    out: dict = {"problems": [], "notes": workload.notes}
    problems = out["problems"]

    instances = [workload.instance(slot) for slot in range(workload.slots)]
    instances += workload.fixed
    cli_ops = [(instances[slot], workloads.write_cli_files(
                    instances[slot], directory / f"cli{slot}"))
               for slot in workload.cli_slots]
    cli_ops += [(instance, workloads.write_cli_files(instance, directory / f"cli-{i}"))
                for i, instance in enumerate(workload.fixed)
                if instance.cli_argv is not None]
    out["setup_s"] = time.perf_counter() - started

    tracer = None
    if spec["trace"]:
        from tracer import AFTER_CALLS, Tracer
        tracer = Tracer()
        tracer.install()
    results, times, errors = {}, {}, {}
    for instance in instances:
        result, error, seconds = solve(instance, BudgetExceededError)
        times[instance.label] = seconds
        results[instance.label] = result
        if error is not None:
            errors[instance.label] = error
    out["call_times"] = times
    out["ops"] = len(instances) + len(cli_ops) * CLI_REPEATS
    if not spec["check"]:
        expected = spec["digests"]
        for instance in instances:
            result = results[instance.label]
            if result is None:
                if instance.label in expected:
                    problems.append(f"{instance.label}: failed here but not when checked")
            elif fingerprint(instance, result) != expected.get(instance.label):
                problems.append(f"{instance.label}: result differs from the checked result")
    spans_file = Path(spec["outdir"]) / f"spans-round{spec['round']}"
    if tracer is not None:
        out["layers"], out["absent"] = tracer.layer_metrics()
        out["spans"] = len(tracer.spans)
        tracer.write_spans(f"{spans_file}-calls.jsonl.gz")
        tracer.reset()
        for instance in instances:
            if instance.traced_extra is not None:
                instance.traced_extra()
    out["cli_times"], cli_failed = cli_round(root, cli_ops, results, problems,
                                             in_process=tracer is not None)
    if tracer is not None:
        tracer.uninstall()
        after_calls, _ = tracer.layer_metrics()
        for name in AFTER_CALLS:
            out["layers"][name] = after_calls[name]
        out["spans"] += len(tracer.spans)
        tracer.write_spans(f"{spans_file}-after.jsonl.gz")
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if spec["check"]:
        allowance = checks.OracleAllowance(sizes.oracle_pairs_per_game,
                                           sizes.oracle_pairs_total)
        check_results(instances, results, errors, allowance, BudgetExceededError, out)
        over_budget = out["over_budget"]
    else:
        over_budget = spec["over_budget"]
    out["failed"] = len(errors.keys() | over_budget.keys()) + cli_failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
