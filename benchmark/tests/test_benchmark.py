"""The benchmark's own tests.

    python3 -m pytest benchmark/tests -q

Every workload runs in quick mode (tiny instances, every check on); the
deterministic per-layer counts of two traced runs must agree exactly.
The independent checks are also shown to reject wrong outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from worker import CLI_REPEATS, check_results  # noqa: E402
from workloads import Instance  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_passes_every_check(workload):
    result = result_of(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # decide and witness carry one known failure, run as a library call
    # and through the CLI, in each of the two rounds.
    known = 2 * (1 + CLI_REPEATS) if workload in ("decide", "witness") else 0
    assert result["failed"] == known


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(METRICS) | {"trace.solve_s", "trace.overhead_pct"}
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] == "count"}
    assert counts == {name: m["value"] for name, m in second["metrics"].items()
                      if m["unit"] == "count"}
    assert counts["linalg.calls"] > 0 and counts["io_formats.parse_bytes"] > 0
    if workload == "decide":  # the fixed game whose two-player solve enumerates
        assert counts["parity.enumerations"] > 0
    if workload == "paut":
        assert counts["pautomata.layered_classes"] > 0


def test_run_without_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("decide", 0, cwd=tmp_path, script=tmp_path / "benchmark" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_function_is_reported_absent(monkeypatch):
    import obg.parity

    monkeypatch.delattr(obg.parity, "_canonical_strategy")
    tracer = Tracer()
    tracer.install()
    try:
        _, absent = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert {"parity.witness_s", "parity.witness_resolves",
            "parity.witness_choices"} <= set(absent)
    assert "linalg.calls" not in absent


def test_reset_separates_phases_of_recording():
    from obg import solve_parity
    from obg.model import Owner, make_game

    game = make_game([("a", Owner.PLAYER0, 0, None)], [("a", "a")], {})
    tracer = Tracer()
    tracer.install()
    try:
        solve_parity(game, witnesses=False)
        first, _ = tracer.layer_metrics()
        tracer.reset()
        after, _ = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert first["parity.solve_values_calls"] == 1
    assert first["parity.solve_values_distinct"] == 1
    assert after["parity.solve_values_calls"] == 0
    assert after["parity.solve_values_distinct"] == 0


def test_budget_error_in_a_check_counts_the_instance_over_budget():
    from obg.errors import BudgetExceededError

    def check(result, allowance):
        raise BudgetExceededError("dual too large")

    out = {"problems": []}
    instance = Instance(label="x", call=lambda: 1, check=check, digest=str)
    check_results([instance], {"x": 1}, {}, checks.OracleAllowance(1, 1),
                  BudgetExceededError, out)
    assert "dual too large" in out["over_budget"]["x"]
    assert out["problems"] == []


def test_tracer_patches_every_module_binding_a_name():
    import obg.graphs
    import obg.obligations
    import obg.parity

    original = obg.graphs.tarjan_scc
    tracer = Tracer()
    tracer.install()
    try:
        assert obg.parity.tarjan_scc is obg.graphs.tarjan_scc is not original
        assert obg.obligations.solve_values is obg.parity.solve_values
    finally:
        tracer.uninstall()
    assert obg.parity.tarjan_scc is original


def small_game():
    from obg.model import Obligation, Owner, make_game

    half = Fraction(1, 2)
    return make_game(
        [("a", Owner.PLAYER0, 1, None), ("b", Owner.PROBABILISTIC, 2, None),
         ("u", Owner.PROBABILISTIC, 0, Obligation(">=", half)),
         ("w", Owner.PROBABILISTIC, 1, Obligation(">", half))],
        [("a", "b"), ("a", "u"), ("b", "u"), ("b", "w"), ("u", "u"), ("w", "w")],
        {"b": {"u": half, "w": half}, "u": {"u": Fraction(1)}, "w": {"w": Fraction(1)}})


def test_bellman_check_rejects_a_wrong_value():
    game = small_game()
    good = [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(0)]
    assert checks.check_bellman(game, good) == []
    assert checks.check_bellman(game, [Fraction(1, 2)] + good[1:]) != []
    assert checks.check_bellman(game, good[:1] + [Fraction(1, 3)] + good[2:]) != []


def test_certificate_check_rejects_dangling_and_odd_cycles():
    game = small_game()
    u, w = 2, 3
    assert checks.check_certificate(game, ((u, ((w, 2),)), (w, ((u, 2),)))) == []
    assert checks.check_certificate(game, ((u, ((w, 2),)), (w, None))) != []
    assert checks.check_certificate(game, ((u, ((w, 1),)), (w, ((u, 2),)))) != []


def test_solver_report_passes_and_tampered_report_fails():
    from dataclasses import replace

    from obg import find_best_dependency

    game = small_game()
    dep, report = find_best_dependency(game, witnesses=True)
    allowance = checks.OracleAllowance(64, 64)
    assert checks.check_report(game, dep, report, allowance=allowance) == []
    assert allowance.games == 1
    values = list(report.values)
    values[0] = 1 - values[0]
    assert checks.check_report(game, dep, replace(report, values=tuple(values))) != []


def test_ruin_closed_form():
    # three locations: the only interior one moves up with probability p
    assert checks.ruin_probability([1, Fraction(1, 3), 1], 1) == Fraction(1, 3)
    # fair walk on 0..4 from 1 reaches the top with probability 1/4
    fair = [Fraction(1, 2)] * 5
    assert checks.ruin_probability(fair, 1) == Fraction(1, 4)
