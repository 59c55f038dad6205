"""Corner cases: extreme thresholds, degenerate shapes, budget edges."""

import random
import re
from fractions import Fraction as F

import pytest

import obg.obligations as obligations_mod
import obg.parity as parity_mod
from obg import (BudgetExceededError, InputFormatError, Obligation,
                 decide_parity_threshold, decide_value, dual_game,
                 embed_chain_as_game, find_best_dependency, make_chain,
                 make_game, solve_parity)
from obg.budgets import Budgets
from obg.generators import random_game, random_parity_game
from obg.model import GE, GT, ONE, ZERO, Owner

HALF = F(1, 2)


def single_obligation_chain(cmp, threshold, priority=0):
    chain = make_chain(["s"], {"s": {"s": ONE}}, initial="s")
    return embed_chain_as_game(chain, [priority], [Obligation(cmp, threshold)])


def test_threshold_zero_nonstrict_is_always_met():
    game = single_obligation_chain(GE, ZERO, priority=1)
    # even with a hopeless parity condition the >= 0 bound holds via bottomless reliance
    _, report = find_best_dependency(game, witnesses=False)
    assert report.values[0] == ONE


def test_threshold_one_strict_is_never_met():
    game = single_obligation_chain(GT, ONE, priority=0)
    _, report = find_best_dependency(game, witnesses=False)
    assert report.values[0] == ZERO
    # and dually the opponent's >= 0 obligation is met
    _, counter = find_best_dependency(dual_game(game), witnesses=False)
    assert counter.values[0] == ONE


def test_threshold_one_nonstrict_met_exactly():
    game = single_obligation_chain(GE, ONE, priority=0)
    _, report = find_best_dependency(game, witnesses=False)
    assert report.values[0] == ONE


def test_obligation_self_loop_with_odd_priority_unmet():
    # the only continuation revisits the obligation at an odd minimum
    game = single_obligation_chain(GE, HALF, priority=1)
    _, report = find_best_dependency(game, witnesses=False)
    assert report.values[0] == ZERO
    assert report.pre_values[0] == ZERO


def test_obligation_self_loop_with_even_priority_met():
    game = single_obligation_chain(GE, ONE, priority=2)
    dep, report = find_best_dependency(game, witnesses=False)
    assert report.values[0] == ONE
    assert dep.get(0) == frozenset({(0, 2)})


def test_every_configuration_obligated():
    game = make_game(
        configs=[("a", Owner.PROBABILISTIC, 0, Obligation(GE, HALF)),
                 ("b", Owner.PROBABILISTIC, 0, Obligation(GE, ONE))],
        edges=[("a", "b"), ("b", "a")],
        kernel={"a": {"b": ONE}, "b": {"a": ONE}})
    _, report = find_best_dependency(game, witnesses=False)
    assert list(report.values) == [ONE, ONE]
    _, counter = find_best_dependency(dual_game(game), witnesses=False)
    assert list(counter.values) == [ZERO, ZERO]


def test_two_player_game_with_obligation_on_player_config():
    game = make_game(
        configs=[("choose", Owner.PLAYER0, 1, Obligation(GT, HALF)),
                 ("spoiler", Owner.PLAYER1, 1, None),
                 ("good", Owner.PROBABILISTIC, 0, None),
                 ("bad", Owner.PROBABILISTIC, 1, None)],
        edges=[("choose", "spoiler"), ("choose", "good"), ("spoiler", "bad"),
               ("spoiler", "choose"), ("good", "good"), ("bad", "bad")],
        kernel={"good": {"good": ONE}, "bad": {"bad": ONE}})
    _, report = find_best_dependency(game, witnesses=False)
    # Player 0 moves straight to the winning sink: measure 1 > 1/2
    assert report.values[0] == ONE
    decision = decide_value(game, 0, GE, ONE)
    assert decision.verdict


def test_decide_value_rejects_bad_threshold():
    # both deciders validate the query as an Obligation, with its messages
    game = single_obligation_chain(GE, HALF)
    for decide in (decide_value, decide_parity_threshold):
        with pytest.raises(InputFormatError,
                           match=re.escape("obligation threshold must lie in [0,1], got 3/2")):
            decide(game, 0, GE, F(3, 2))
        with pytest.raises(InputFormatError,
                           match=re.escape("obligation comparator must be '>=' or '>', got '<'")):
            decide(game, 0, "<", HALF)


def test_tiny_dependency_node_budget_trips(fig5):
    # the lifting on fig5 makes exactly three monitor-game tests
    find_best_dependency(fig5, witnesses=False,
                         budgets=Budgets(max_dependency_nodes=3))
    with pytest.raises(BudgetExceededError, match="more than 2 monitor-game tests"):
        find_best_dependency(fig5, witnesses=False,
                             budgets=Budgets(max_dependency_nodes=2))


@pytest.mark.parametrize("bad", [1.5, True, "5"])
def test_budgets_reject_non_integers(bad):
    for name in ("max_obligations", "max_priority", "max_strategy_pairs",
                 "max_dependency_nodes"):
        with pytest.raises(InputFormatError, match=f"budget {name} must be an integer"):
            Budgets(**{name: bad})


def test_parity_solver_on_single_player1_game():
    game = make_game(
        configs=[("p", Owner.PLAYER1, 1, None),
                 ("w", Owner.PROBABILISTIC, 0, None),
                 ("l", Owner.PROBABILISTIC, 1, None)],
        edges=[("p", "w"), ("p", "l"), ("w", "w"), ("l", "l")],
        kernel={"w": {"w": ONE}, "l": {"l": ONE}})
    solved = solve_parity(game)
    assert solved.values[0] == ZERO
    assert solved.pi.as_dict() == {0: 2}


@pytest.mark.parametrize("out_of_range", [lambda n: -1, lambda n: n, lambda n: n + 5],
                         ids=["minus-one", "length", "beyond"])
def test_decide_rejects_out_of_range_configurations_before_solving(out_of_range,
                                                                   monkeypatch):
    # index -1 once answered for the last configuration, and len(game)
    # failed with IndexError only after both dependency searches
    game = random_game(random.Random(3), max_configs=6, max_obligations=2)
    parity_game = random_parity_game(random.Random(3), max_configs=6)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the configuration")

    monkeypatch.setattr(obligations_mod, "find_best_dependency", no_solve)
    monkeypatch.setattr(parity_mod, "solve_values", no_solve)
    with pytest.raises(InputFormatError, match="out of range"):
        decide_value(game, out_of_range(len(game)), GE, HALF)
    with pytest.raises(InputFormatError, match="out of range"):
        decide_parity_threshold(parity_game, out_of_range(len(parity_game)), GE, HALF)
