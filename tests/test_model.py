import pickle
from dataclasses import fields
from fractions import Fraction as F

import pytest

from obg import (InputFormatError, Obligation, Owner, dual_game,
                 embed_chain_as_game, format_rational, make_chain, make_game,
                 parse_rational, solve_parity, validate, validate_chain)
from obg.model import (ONE, LabeledMarkovChain, ObligationGame, explore_game,
                       game_from_rows, restrict_choice, settle)
import obg.obligations as obligations

from conftest import load_game


def test_parse_and_format_rational_round_trip():
    for text in ["0", "1", "1/2", "3/4", "-2/7"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(parse_rational("2/4")) == "1/2"
    assert parse_rational("+006/08") == F(3, 4)


@pytest.mark.parametrize("text", ["0.5", "1e-5", "1e-30000000", "5E2", " 1/2", "1/2 ",
                                  "1/2\n", "1/-2", "1/2/3", "", "+", "/2", "1_000", "0x1",
                                  "\u0661", "inf", "nan", "1/0", "1" * 5000])
def test_parse_rational_takes_only_a_sign_digits_and_a_slash(text):
    with pytest.raises(InputFormatError):
        parse_rational(text)


def test_bare_numbers_are_rejected():
    with pytest.raises(InputFormatError):
        parse_rational(0.5)  # type: ignore[arg-type]
    with pytest.raises(InputFormatError):
        parse_rational(1)  # type: ignore[arg-type]


def test_validate_chain_names_an_out_of_range_successor_by_its_index():
    chain = LabeledMarkovChain(names=("a",), succ=(((0, ONE), (5, F(0))),),
                               labels=(frozenset(),), initial=0)
    assert validate_chain(chain) == [
        "location a has successor index 5 out of range",
        "location a lists successor 5 with non-positive probability 0"]


def test_obligation_dual_flips_strictness():
    assert Obligation(">=", F(1, 2)).dual() == Obligation(">", F(1, 2))
    assert Obligation(">", F(1, 3)).dual() == Obligation(">=", F(2, 3))


def test_obligation_threshold_must_be_probability():
    with pytest.raises(InputFormatError):
        Obligation(">=", F(3, 2))


def two_config_game():
    return make_game(
        configs=[("a", Owner.PROBABILISTIC, 0, None),
                 ("b", Owner.PROBABILISTIC, 1, None)],
        edges=[("a", "b"), ("b", "b")],
        kernel={"a": {"b": ONE}, "b": {"b": ONE}})


def test_validate_accepts_well_formed_game():
    assert validate(two_config_game()) == []


def test_validate_reports_row_sum_violation():
    game = make_game(
        configs=[("v", Owner.PROBABILISTIC, 0, None)],
        edges=[("v", "v")],
        kernel={"v": {"v": F(3, 4)}})
    problems = validate(game)
    assert any("sums to 3/4" in p for p in problems)


def test_validate_reports_kernel_edge_mismatch():
    game = make_game(
        configs=[("v", Owner.PROBABILISTIC, 0, None),
                 ("w", Owner.PROBABILISTIC, 0, None)],
        edges=[("v", "v"), ("w", "w")],
        kernel={"v": {"v": F(1, 2), "w": F(1, 2)}, "w": {"w": ONE}})
    problems = validate(game)
    assert any("does not match its edges" in p for p in problems)


def test_validate_rejects_dead_configuration():
    game = make_game(
        configs=[("v", Owner.PLAYER0, 0, None)],
        edges=[],
        kernel={})
    assert any("no outgoing edge" in p for p in validate(game))


def test_dual_obligation_examples(fig6):
    dual = dual_game(fig6)
    s1 = fig6.index("s1")
    assert fig6.obligation[s1] == Obligation(">=", F(3, 4))
    assert dual.obligation[s1] == Obligation(">", F(1, 4))
    assert dual.obligation[fig6.index("s2")] is None


def test_dual_is_involution_up_to_parity_class(fig6):
    twice = dual_game(dual_game(fig6))
    assert twice.owners == fig6.owners
    assert twice.obligation == fig6.obligation
    assert twice.succ == fig6.succ
    assert all((a - b) % 2 == 0 for a, b in zip(twice.priority, fig6.priority))
    assert solve_parity(strip(fig6), witnesses=False).values == \
        solve_parity(strip(twice), witnesses=False).values


def strip(game):
    from obg.model import ObligationGame
    return ObligationGame(names=game.names, owners=game.owners, succ=game.succ,
                          kernel=game.kernel, priority=game.priority,
                          obligation=tuple(None for _ in game.names))


def test_embed_chain_preserves_structure():
    chain = make_chain(["x", "y"], {"x": {"y": ONE}, "y": {"y": ONE}}, initial="x")
    game = embed_chain_as_game(chain, {"x": 1, "y": 0})
    assert len(game) == 2
    assert all(o is Owner.PROBABILISTIC for o in game.owners)
    assert game.kernel_row(0) == ((1, ONE),)
    assert validate(game) == []


def test_embed_requires_total_priority():
    chain = make_chain(["x", "y"], {"x": {"y": ONE}, "y": {"y": ONE}}, initial="x")
    with pytest.raises(InputFormatError):
        embed_chain_as_game(chain, {"x": 1})


@pytest.mark.parametrize("bad", [1.5, True, "1", F(1), -1], ids=repr)
def test_embed_rejects_non_integer_priorities(bad):
    chain = make_chain(["x", "y"], {"x": {"y": ONE}, "y": {"y": ONE}}, initial="x")
    message = ("location x has negative priority -1" if bad == -1 else
               "priority of x must be an integer")
    for priority in ({"x": bad, "y": 0}, [bad, 0]):
        with pytest.raises(InputFormatError, match=message):
            embed_chain_as_game(chain, priority)


def test_single_location_even_self_loop_has_value_one():
    chain = make_chain(["s"], {"s": {"s": ONE}}, initial="s")
    game = embed_chain_as_game(chain, {"s": 0})
    assert solve_parity(game, witnesses=False).values == (ONE,)


def test_fixture_games_validate():
    for name in ["fig5.game.json", "fig6.game.json", "fig6_s4_geq.game.json",
                 "fig6_s4_gt.game.json", "parity_demo.game.json"]:
        assert validate(load_game(name)) == [], name


def test_game_from_rows_sums_mass_drops_zero_and_sorts():
    half = F(1, 2)
    game = game_from_rows([
        # an exit into a value-0 configuration: (WIN, p*0) and (LOSE, p*1)
        ("a", Owner.PROBABILISTIC, 0, None, [(2, half), (1, half * 0), (2, half * 1)]),
        ("b", Owner.PLAYER0, 1, None, [3, 0, 3]),
        ("c", Owner.PROBABILISTIC, 2, None, [(3, F(1, 4)), (2, F(1, 4)), (3, half)]),
        ("d", Owner.PLAYER1, 3, Obligation(">", half), [3]),
    ])
    assert game.names == ("a", "b", "c", "d")
    assert game.succ == ((2,), (0, 3), (2, 3), (3,))
    assert game.kernel == (((2, ONE),), None, ((2, F(1, 4)), (3, F(3, 4))), None)
    assert game.priority == (0, 1, 2, 3)
    assert game.obligation == (None, None, None, Obligation(">", half))
    assert validate(game) == []


def test_explore_game_numbers_in_discovery_order_and_expands_last_first():
    graph = {"r": ["a", "b"], "a": ["c"], "b": ["d"], "c": ["c"], "d": ["r"]}
    expanded = []

    def expand(key):
        expanded.append(key)
        return key, Owner.PLAYER0, 0, None, graph[key]

    game, keys = explore_game("r", expand)
    assert expanded == ["r", "b", "d", "a", "c"]
    assert keys == ["r", "a", "b", "d", "c"]
    assert game.names == tuple(keys)
    assert game.succ == ((1, 2), (4,), (3,), (0,), (4,))


def mixed_game():
    half = F(1, 2)
    return make_game(
        configs=[("a", Owner.PLAYER0, 3, Obligation(">=", half)),
                 ("b", Owner.PLAYER1, 2, None),
                 ("c", Owner.PROBABILISTIC, 1, Obligation(">", half)),
                 ("d", Owner.PLAYER0, 4, None)],
        edges=[("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
               ("c", "a"), ("c", "d"), ("d", "a")],
        kernel={"c": {"a": half, "d": half}})


def test_settle_makes_listed_configurations_absorbing_and_keeps_the_rest():
    game = mixed_game()
    settled = settle(game, {0: True, 2: False})
    assert game == mixed_game()  # the argument is not touched
    assert settled.names == game.names
    assert settled.owners == (Owner.PROBABILISTIC, Owner.PLAYER1,
                              Owner.PROBABILISTIC, Owner.PLAYER0)
    assert settled.succ == ((0,), (2, 3), (2,), (0,))
    assert settled.kernel == (((0, ONE),), None, ((2, ONE),), None)
    assert settled.priority == (0, 2, 1, 4)
    assert settled.obligation == (None, None, None, None)
    assert validate(settled) == []
    assert solve_parity(settled, witnesses=False).values[:3:2] == (ONE, F(0))
    assert settle(game, {}) == game


def rebuilt(game: ObligationGame) -> ObligationGame:
    return ObligationGame(**{f.name: getattr(game, f.name) for f in fields(ObligationGame)})


def test_equal_games_share_one_hash_and_repeat_their_counters():
    first, second = load_game("fig6.game.json"), load_game("fig6.game.json")
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash(tuple(
        getattr(first, f.name) for f in fields(ObligationGame)))
    # one search: one lifting test that builds and solves s1's
    # monitor game (the row leaves out s1's odd self-loop, so it depends
    # on the labels), condition 3 answered from the memo, and the reduced
    # game solved once with s1 settled; a repeat, on the same game or an
    # equal one, starts from an empty memo
    expected = (("lifting_tests", 1), ("lifts", 1),
                ("monitor_solves", 1), ("memo_hits", 1),
                ("settled_solves", 1), ("settled_answers", 0))
    for game in (first, first, second):
        assert obligations.find_best_dependency(game)[1].stats == expected


def test_derived_copies_hash_like_fresh_games():
    game = mixed_game()
    for copy in (settle(game, {0: True}), restrict_choice(game, {0: 2}), dual_game(game)):
        assert copy != game
        assert hash(copy) == hash(rebuilt(copy))
    unpickled = pickle.loads(pickle.dumps(game))
    assert set(vars(unpickled)) == {f.name for f in fields(ObligationGame)}
    assert unpickled == game and hash(unpickled) == hash(game)
