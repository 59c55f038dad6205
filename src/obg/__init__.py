"""Exact solver for finite turn-based stochastic parity games with
obligation objectives, and p-automaton acceptance of finite Markov
chains via a product-game construction.

The names below, and the submodules that define them, are looked up on
first use (PEP 562), so ``import obg`` loads no submodule and a program
pays only for the modules it touches.
"""

import sys as _sys

_EXPORTS = {
    "budgets": ("DEFAULT_BUDGETS", "Budgets"),
    "chains": ("BsccDecomposition", "McEstimate", "bscc_decompose",
               "monte_carlo_estimate", "parity_measure", "reach_probability"),
    "errors": ("BudgetExceededError", "InputFormatError",
               "InternalInvariantError", "ObgError", "OracleInfeasibleError"),
    "graphs": (),
    "linalg": (),
    "model": ("LabeledMarkovChain", "Obligation", "ObligationGame", "Owner",
              "PureMemorylessStrategy", "dual_game", "embed_chain_as_game",
              "format_rational", "make_chain", "make_game", "parse_rational",
              "validate", "validate_chain"),
    "obligations": ("Dependency", "GoodnessReport", "ObligationValueReport",
                    "SolveContext", "ValueDecision", "build_gamma_game",
                    "check_condition1", "check_condition2", "check_condition3",
                    "decide_value", "find_best_dependency", "gamma_value",
                    "value_of_prefix", "values_given_dependency",
                    "verify_dependency"),
    "parity": ("ThresholdDecision", "ValueVector", "decide_parity_threshold",
               "induce_chain", "solve_parity", "solve_parity_oracle"),
    "pautomata": ("And", "AutomatonGraph", "Formula", "Or", "PAutomaton",
                  "StateAtom", "Term", "accepts", "build_automaton_graph",
                  "build_product_game", "closure", "is_uniform"),
}

# Each public name, a submodule's own name included, to the submodule defining it.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # the import statement's own path, which -X importtime reports
    home = _sys.modules[qualified]
    return home if name == module else getattr(home, name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
