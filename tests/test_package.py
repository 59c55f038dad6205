"""The package namespace: every public name, and where it comes from.

``obg`` looks its names up on first use, so these tests pin what an
eager package used to offer: the same ``__all__``, the same objects
under the same names, and a bare ``import obg`` that loads nothing else.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import obg

REPO = Path(__file__).resolve().parents[1]

PUBLIC = [
    "And", "AutomatonGraph", "BsccDecomposition", "BudgetExceededError", "Budgets",
    "DEFAULT_BUDGETS", "Dependency", "Formula", "GoodnessReport", "InputFormatError",
    "InternalInvariantError", "LabeledMarkovChain", "McEstimate", "ObgError",
    "Obligation", "ObligationGame", "ObligationValueReport", "Or",
    "OracleInfeasibleError", "Owner", "PAutomaton", "ParityObjective",
    "PureMemorylessStrategy", "SolveContext", "StateAtom", "Term", "ThresholdDecision",
    "ValueDecision", "ValueVector", "accepts", "bscc_decompose", "budgets",
    "build_automaton_graph", "build_gamma_game", "build_product_game", "chains",
    "check_condition1", "check_condition2", "check_condition3", "closure",
    "decide_parity_threshold", "decide_value", "dual_game", "embed_chain_as_game",
    "errors", "find_best_dependency", "format_rational", "gamma_value", "graphs",
    "induce_chain", "is_uniform", "linalg", "make_chain", "make_game", "model",
    "monte_carlo_estimate", "obligations", "parity", "parity_measure", "parse_rational",
    "pautomata", "reach_probability", "solve_chain_obligations", "solve_parity",
    "solve_parity_oracle", "validate", "validate_chain", "value_of_prefix",
    "values_given_dependency", "verify_dependency",
]

# The submodule defining each public name that is not itself a submodule.
DEFINED_IN = {
    "budgets": ["DEFAULT_BUDGETS", "Budgets"],
    "chains": ["BsccDecomposition", "McEstimate", "ParityObjective", "bscc_decompose",
               "monte_carlo_estimate", "parity_measure", "reach_probability"],
    "errors": ["BudgetExceededError", "InputFormatError", "InternalInvariantError",
               "ObgError", "OracleInfeasibleError"],
    "graphs": [],
    "linalg": [],
    "model": ["LabeledMarkovChain", "Obligation", "ObligationGame", "Owner",
              "PureMemorylessStrategy", "dual_game", "embed_chain_as_game",
              "format_rational", "make_chain", "make_game", "parse_rational", "validate",
              "validate_chain"],
    "obligations": ["Dependency", "GoodnessReport", "ObligationValueReport",
                    "SolveContext", "ValueDecision", "build_gamma_game",
                    "check_condition1", "check_condition2", "check_condition3",
                    "decide_value", "find_best_dependency", "gamma_value",
                    "solve_chain_obligations", "value_of_prefix",
                    "values_given_dependency", "verify_dependency"],
    "parity": ["ThresholdDecision", "ValueVector", "decide_parity_threshold",
               "induce_chain", "solve_parity", "solve_parity_oracle"],
    "pautomata": ["And", "AutomatonGraph", "Formula", "Or", "PAutomaton", "StateAtom",
                  "Term", "accepts", "build_automaton_graph", "build_product_game",
                  "closure", "is_uniform"],
}


def fresh_interpreter(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def test_all_lists_the_seventy_public_names():
    assert len(PUBLIC) == 70
    assert obg.__all__ == PUBLIC
    assert sorted(n for module, names in DEFINED_IN.items() for n in (module, *names)) \
        == PUBLIC


def test_a_bare_import_loads_no_submodule():
    printed = fresh_interpreter(
        "import json, sys, obg\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('obg.'))\n"
        "print(json.dumps([loaded, obg.linalg is sys.modules['obg.linalg']]))").stdout
    assert json.loads(printed) == [[], True]


def test_import_time_reports_the_submodules_loaded_on_first_use():
    report = fresh_interpreter("import obg; obg.linalg", "-X", "importtime").stderr
    imported = {line.split("|")[-1].strip() for line in report.splitlines()}
    assert {"obg", "obg.errors", "obg.linalg"} <= imported


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_each_name_is_its_defining_modules_object(module):
    home = importlib.import_module(f"obg.{module}")
    assert getattr(obg, module) is home
    for name in DEFINED_IN[module]:
        assert getattr(obg, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from obg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(obg, name) for name in PUBLIC)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(obg))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'solve'"):
        obg.solve
    with pytest.raises(ImportError):
        exec("from obg import solve", {})
