"""Exact solver for finite turn-based stochastic parity games with
obligation objectives, and p-automaton acceptance of finite Markov
chains via a product-game construction.
"""

from .budgets import DEFAULT_BUDGETS, Budgets
from .chains import (BsccDecomposition, McEstimate, ParityObjective,
                     bscc_decompose, monte_carlo_estimate, parity_measure,
                     reach_probability)
from .errors import (BudgetExceededError, InputFormatError,
                     InternalInvariantError, ObgError, OracleInfeasibleError)
from .model import (LabeledMarkovChain, Obligation, ObligationGame, Owner,
                    PureMemorylessStrategy, dual_game, embed_chain_as_game,
                    format_rational, make_chain, make_game, parse_rational,
                    validate, validate_chain)
from .obligations import (Dependency, GoodnessReport, ObligationValueReport,
                          SolveContext, ValueDecision, build_gamma_game,
                          check_condition1, check_condition2, check_condition3,
                          decide_value, find_best_dependency, gamma_value,
                          solve_chain_obligations, value_of_prefix,
                          values_given_dependency, verify_dependency)
from .parity import (ThresholdDecision, ValueVector, decide_parity_threshold,
                     induce_chain, solve_parity, solve_parity_oracle)
from .pautomata import (And, AutomatonGraph, Formula, Or, PAutomaton,
                        StateAtom, Term, accepts, build_automaton_graph,
                        build_product_game, closure, is_uniform)

__all__ = [name for name in dir() if not name.startswith("_")]
