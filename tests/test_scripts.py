"""Every script under ``scripts/`` loads: a script that imports a name
the package no longer has fails here, not when someone next runs it.
``witness_probe.loop_tests``, which reads a private solver function, is
run on a small game, so a changed private signature fails here too."""

import importlib.util
import sys
from pathlib import Path

import pytest

from obg import Owner, make_game, parity

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def test_there_are_scripts():
    assert SCRIPTS


def load(path, monkeypatch):
    # the scripts put the package's src directory on sys.path when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script's __main__ guard keeps it from running
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads(path, monkeypatch):
    assert callable(getattr(load(path, monkeypatch), "main", None))


def test_witness_probe_counts_the_keep_tests_of_the_test_every_candidate_loop(monkeypatch):
    # Both configurations win almost surely, and the canonical strategy
    # moves a to b and b to a.  The loop tests the losing self-loop at a
    # and takes b untested, then tests b's move to a, which passes.
    probe = load(SCRIPTS_DIR / "witness_probe.py", monkeypatch)
    game = make_game([("a", Owner.PLAYER0, 1, None), ("b", Owner.PLAYER0, 0, None)],
                     [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], {})
    values = parity.solve_values(game)
    strategy = parity._canonical_strategy(game, values, 0)
    assert strategy.as_dict() == {0: 1, 1: 0}
    assert probe.loop_tests(game, values, 0, strategy) == 2
