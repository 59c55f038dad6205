import gc
import itertools
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obg import (InputFormatError, InternalInvariantError, OracleInfeasibleError,
                 PureMemorylessStrategy, decide_parity_threshold, dual_game,
                 induce_chain, make_game, parity_measure, reach_probability,
                 solve_parity, solve_parity_oracle)
from obg.budgets import Budgets
from obg.generators import random_game, random_parity_game
from obg.graphs import tarjan_scc
from obg.model import (ONE, ZERO, ObligationGame, Owner, game_from_rows, restrict_choice,
                       settle)
from obg.obligations import build_gamma_game
import obg.parity as parity_mod

from conftest import load_game

HALF = F(1, 2)


def strip_obligations(game: ObligationGame) -> ObligationGame:
    return ObligationGame(names=game.names, owners=game.owners, succ=game.succ,
                          kernel=game.kernel, priority=game.priority,
                          obligation=tuple(None for _ in game.names))


def sigma(mapping):
    return PureMemorylessStrategy.from_dict(0, mapping)


def pi(mapping):
    return PureMemorylessStrategy.from_dict(1, mapping)


def test_induce_chain_on_pure_kernel():
    game = load_game("fig6.game.json")
    assert induce_chain(strip_obligations(game), sigma({}), pi({})) == game.kernel


def test_induce_chain_rejects_domain_mismatch(fig5):
    with pytest.raises(InputFormatError):
        induce_chain(strip_obligations(fig5), sigma({}), pi({}))


def test_fig5_described_strategy_gives_three_quarters(fig5):
    # "go from v4 to v5, then to v7" is memoryful in the raw game; its
    # measure lives in the monitor game of v5, where the second visit to
    # v5 freezes: choosing v7 at the monitored v4 yields exactly 3/4.
    v5 = fig5.index("v5")
    gamma, root = build_gamma_game(fig5, v5, {(v5, 0)})
    choice = {v: next(u for u in gamma.succ[v] if gamma.names[u].startswith("v7"))
              for v in range(len(gamma))
              if gamma.owners[v] is Owner.PLAYER0 and gamma.names[v].startswith("v4")}
    chain = induce_chain(gamma, sigma(choice), pi({}))
    assert parity_measure(chain, gamma.priority)[root] == F(3, 4)


def test_oracle_on_pure_chain_equals_parity_measure():
    game = strip_obligations(load_game("fig6.game.json"))
    expect = parity_measure(game.kernel, game.priority)
    assert list(solve_parity_oracle(game).values) == expect


def test_player0_picks_even_sink():
    game = make_game(
        configs=[("c", Owner.PLAYER0, 1, None),
                 ("even", Owner.PROBABILISTIC, 0, None),
                 ("odd", Owner.PROBABILISTIC, 1, None)],
        edges=[("c", "even"), ("c", "odd"), ("even", "even"), ("odd", "odd")],
        kernel={"even": {"even": ONE}, "odd": {"odd": ONE}})
    solved = solve_parity_oracle(game)
    assert solved.values[0] == ONE
    assert solved.sigma.as_dict() == {0: 1}


def test_oracle_budget_error():
    game = random_parity_game(random.Random(3), max_configs=6)
    with pytest.raises(OracleInfeasibleError):
        solve_parity_oracle(game, budgets=Budgets(max_strategy_pairs=1))


@given(st.integers(0, 10**6))
@settings(max_examples=60)
def test_fast_solver_is_bit_identical_to_oracle(seed):
    game = random_parity_game(random.Random(seed))
    assert solve_parity(game) == solve_parity_oracle(game)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_determinacy_for_parity_games(seed):
    game = random_parity_game(random.Random(seed))
    direct = solve_parity(game, witnesses=False).values
    swapped = solve_parity(dual_game(game), witnesses=False).values
    assert all(a + b == ONE for a, b in zip(direct, swapped))


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_witnesses_achieve_the_values(seed):
    game = random_parity_game(random.Random(seed * 2 + 1))
    solved = solve_parity(game)
    import itertools
    v1 = [v for v in range(len(game)) if game.owners[v] is Owner.PLAYER1]
    for combo in itertools.product(*(game.succ[v] for v in v1)):
        chain = induce_chain(game, solved.sigma, pi(dict(zip(v1, combo))))
        measured = parity_measure(chain, game.priority)
        assert all(m >= v for m, v in zip(measured, solved.values))
    v0 = [v for v in range(len(game)) if game.owners[v] is Owner.PLAYER0]
    for combo in itertools.product(*(game.succ[v] for v in v0)):
        chain = induce_chain(game, sigma(dict(zip(v0, combo))), solved.pi)
        measured = parity_measure(chain, game.priority)
        assert all(m <= v for m, v in zip(measured, solved.values))


def test_losing_sink_priority_class_invariance():
    def game_with(priority):
        return make_game(
            configs=[("c", Owner.PROBABILISTIC, 0, None),
                     ("sink", Owner.PROBABILISTIC, priority, None)],
            edges=[("c", "sink"), ("c", "c"), ("sink", "sink")],
            kernel={"c": {"c": HALF, "sink": HALF}, "sink": {"sink": ONE}})
    assert solve_parity(game_with(1), witnesses=False).values == \
        solve_parity(game_with(3), witnesses=False).values


def test_reachability_shaped_game_matches_reach_probability():
    rng = random.Random(11)
    for _ in range(20):
        game = random_parity_game(rng)
        # reshape: absorbing targets at priority 0, everything else 1
        n = len(game)
        targets = {v for v in range(n) if v % 3 == 0}
        succ = list(game.succ)
        kernel = list(game.kernel)
        owners = list(game.owners)
        for t in targets:
            succ[t] = (t,)
            kernel[t] = ((t, ONE),)
            owners[t] = Owner.PROBABILISTIC
        reshaped = ObligationGame(
            names=game.names, owners=tuple(owners), succ=tuple(succ),
            kernel=tuple(kernel),
            priority=tuple(0 if v in targets else 1 for v in range(n)),
            obligation=tuple(None for _ in range(n)))
        solved = solve_parity(reshaped)
        chain = induce_chain(reshaped, solved.sigma, solved.pi)
        assert list(solved.values) == reach_probability(chain, targets)
        assert solved == solve_parity_oracle(reshaped)


def test_decide_threshold_strict_vs_nonstrict():
    game = make_game(
        configs=[("c", Owner.PROBABILISTIC, 1, None),
                 ("w", Owner.PROBABILISTIC, 0, None),
                 ("l", Owner.PROBABILISTIC, 1, None)],
        edges=[("c", "w"), ("c", "l"), ("w", "w"), ("l", "l")],
        kernel={"c": {"w": HALF, "l": HALF}, "w": {"w": ONE}, "l": {"l": ONE}})
    assert decide_parity_threshold(game, 0, ">=", HALF).verdict
    assert not decide_parity_threshold(game, 0, ">", HALF).verdict
    assert decide_parity_threshold(game, 0, ">=", ZERO).verdict


def test_decide_threshold_on_fig6_gamma_game(fig6):
    s1 = fig6.index("s1")
    gamma, root = build_gamma_game(fig6, s1, {(s1, 0), (s1, 2)})
    decision = decide_parity_threshold(gamma, root, ">=", F(3, 4))
    assert decision.verdict and decision.value == F(3, 4)
    assert decision.certificate_player == 0


def fractional_game(seed):
    """The first game of ``random_parity_game(Random(seed), max_configs=10)``
    with both players and a value other than 0 and 1, with its oracle
    values."""
    rng = random.Random(seed)
    while True:
        game = random_parity_game(rng, max_configs=10)
        if not all(parity_mod._player_states(game, o) for o in (Owner.PLAYER0, Owner.PLAYER1)):
            continue
        values = solve_parity_oracle(game, witnesses=False).values
        if set(values) - {ZERO, ONE}:
            return game, values


def two_climb_game(seed):
    """The first game of ``random_parity_game(Random(seed), max_configs=14)``
    within the oracle's budget in which both players own a configuration of
    value other than 0 and 1, so that the climbs solve its residual game,
    with its oracle values."""
    rng = random.Random(seed)
    while True:
        game = random_parity_game(rng, max_configs=14)
        if game.is_chain() or parity_mod.oracle_pair_count(game) > 4096:
            continue
        values = parity_mod.solve_values(game)
        if {Owner.PLAYER0, Owner.PLAYER1} <= {game.owners[v] for v, x in enumerate(values)
                                              if x not in (ZERO, ONE)}:
            return game, solve_parity_oracle(game, witnesses=False).values


def test_class_steps_alone_reach_the_oracle_values():
    # from every Player-0 strategy, class steps without value switches
    # must climb to the values: only an optimal strategy admits none
    steps = 0
    for game, values in (two_climb_game(seed) for seed in range(9)):
        dual = dual_game(game)
        for side, expected in ((game, values),
                               (dual, solve_parity_oracle(dual, witnesses=False).values)):
            assert solve_parity(side, witnesses=False).values == expected
            for sigma in parity_mod._strategies(side, Owner.PLAYER0):
                x = parity_mod._best_response_values(side, sigma)
                while parity_mod._class_step(side, x, sigma):
                    x = parity_mod._rise(x, parity_mod._best_response_values(side, sigma))
                    steps += 1
                assert x == expected
    assert steps == 51


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_residual_solve_matches_the_oracle_on_fractional_games(seed):
    game, values = fractional_game(seed)
    assert parity_mod.solve_values(game) == values
    dual = dual_game(game)
    assert parity_mod.solve_values(dual) == solve_parity_oracle(dual, witnesses=False).values


def test_climbs_run_on_the_residual_game(monkeypatch):
    climb, climbed = parity_mod._climb, []
    monkeypatch.setattr(parity_mod, "_climb",
                        lambda game, sigma: climbed.append(game) or climb(game, sigma))
    games = [fractional_game(seed) for seed in range(20)] + \
        [two_climb_game(seed) for seed in range(5)]
    climbs = 0
    for primal, values in games:
        for game, x in ((primal, values), (dual_game(primal), [ONE - r for r in values])):
            climbed.clear()
            parity_mod.solve_values(game)
            # the configurations outside both almost-sure regions, then the
            # two sinks; a residual game with one player is solved in closed form
            residual = [v for v in range(len(game)) if x[v] not in (ZERO, ONE)]
            two_player = {Owner.PLAYER0, Owner.PLAYER1} <= {game.owners[v] for v in residual}
            assert len(climbed) == (2 if two_player else 0)
            for residual_game in climbed:
                assert len(residual_game) == len(residual) + 2
                assert residual_game.names[:-2] == tuple(game.names[v] for v in residual)
            climbs += len(climbed)
    assert climbs == 28


# Games of the two stall families whose climbs on the whole game left a
# gap; on the residual game, seeds 341, 394 and 504 need no class step,
# and each of the others needs one on each side.
STALL_SEEDS = [(341, 160, 3, False), (349, 160, 3, True), (394, 160, 3, False),
               (412, 160, 3, True), (495, 160, 3, True), (504, 200, 5, False),
               (536, 200, 5, True), (613, 200, 5, True), (632, 200, 5, True),
               (709, 200, 5, True)]


def stall_game(seed, max_configs, max_priority):
    return random_parity_game(random.Random(seed), max_configs=max_configs,
                              max_priority=max_priority)


@pytest.mark.parametrize("seed,max_configs,max_priority,steps", STALL_SEEDS)
def test_residual_solve_closes_the_stall_seeds(monkeypatch, seed, max_configs,
                                               max_priority, steps):
    class_step, switched = parity_mod._class_step, []

    def counting(*args):
        if not steps:
            raise AssertionError("the residual solve took a class step")
        switched.append(class_step(*args))
        return switched[-1]

    monkeypatch.setattr(parity_mod, "_class_step", counting)
    game = stall_game(seed, max_configs, max_priority)
    values = []
    for side in (game, dual_game(game)):
        switched.clear()
        values.append(parity_mod.solve_values(side))
        assert any(switched) == steps
    assert all(a + b == ONE for a, b in zip(*values))


def test_a_gap_without_a_class_step_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(parity_mod, "_class_step", lambda *args: False)
    with pytest.raises(InternalInvariantError, match="left a gap"):
        parity_mod.solve_values(stall_game(349, 160, 3))


def test_a_best_response_that_does_not_rise_is_an_invariant_error(monkeypatch):
    # a switches from the odd loop b to the even loop c, so its value must
    # rise from 0 to 1; planted best responses keep it or lower c's
    game = game_from_rows([
        ("a", Owner.PLAYER0, 2, None, [1, 2]),
        ("b", Owner.PLAYER1, 1, None, [1]),
        ("c", Owner.PLAYER1, 0, None, [2])])
    assert parity_mod._climb(game, {0: 1}) == (ONE, ZERO, ONE)
    for planted in ((ZERO, ZERO, ONE), (ONE, ZERO, ZERO)):
        responses = iter([(ZERO, ZERO, ONE), planted])
        monkeypatch.setattr(parity_mod, "_best_response_values",
                            lambda game, sigma: next(responses))
        with pytest.raises(InternalInvariantError, match="did not raise"):
            parity_mod._climb(game, {0: 1})


# ---------------------------------------------------------------------------
# Attractors and end components against naive fixpoints


def sub_arena(game, mask):
    """The largest subset of `mask` in which every configuration keeps a
    successor and probabilistic ones keep all of theirs, like the
    sub-arenas the qualitative recursion descends into."""
    sub = {v for v in range(len(game)) if mask >> v & 1}
    while True:
        bad = {v for v in sub
               if not any(u in sub for u in game.succ[v])
               or (game.owners[v] is Owner.PROBABILISTIC
                   and not all(u in sub for u in game.succ[v]))}
        if not bad:
            return frozenset(sub)
        sub -= bad


def kept_by(game, player, region, sub):
    """The largest subset of `region` in which `player` can keep the play,
    like the winning regions the recursion attracts to."""
    kept = set(region) & sub
    while True:
        bad = {v for v in kept
               if not (any if game.owners[v] is player else all)(
                   u in kept for u in game.succ[v] if u in sub)}
        if not bad:
            return frozenset(kept)
        kept -= bad


def naive_pos_attr(game, player, targets, sub):
    inside = set(targets) & sub
    while True:
        grow = {v for v in sub - inside
                if (any if game.owners[v] in (player, Owner.PROBABILISTIC) else all)(
                    u in inside for u in game.succ[v] if u in sub)}
        if not grow:
            return frozenset(inside)
        inside |= grow


def check_attractor_moves(game, player, targets, attractor, moves):
    """Following `player`'s moves, every member reaches the targets with
    positive probability: the rank (steps to the targets, minimised over
    chance and maximised over the opponent) is finite everywhere."""
    opponent = Owner.PLAYER1 if player is Owner.PLAYER0 else Owner.PLAYER0
    rank = {v: 0 for v in targets}
    while True:
        grow = {}
        for v in attractor - set(rank):
            succ = [moves[v]] if v in moves else [u for u in game.succ[v] if u in attractor]
            ranked = [rank[u] for u in succ if u in rank]
            if game.owners[v] is opponent and len(ranked) == len(succ) or \
               game.owners[v] is not opponent and ranked:
                grow[v] = 1 + (max if game.owners[v] is opponent else min)(ranked)
        if not grow:
            break
        rank.update(grow)
    assert set(rank) == attractor


def naive_as_attr(game, player, targets, sub):
    """nu Y. mu X. targets or a step into X that the owner cannot avoid,
    where probabilistic configurations must also keep all mass in Y."""
    stay = set(sub)
    while True:
        reach = set(targets) & stay
        while True:
            def step(v):
                succ = [u for u in game.succ[v] if u in sub]
                if game.owners[v] is player:
                    return any(u in reach for u in succ)
                if game.owners[v] is Owner.PROBABILISTIC:
                    return all(u in stay for u in succ) and any(u in reach for u in succ)
                return all(u in reach for u in succ)
            grow = {v for v in stay - reach if step(v)}
            if not grow:
                break
            reach |= grow
        if reach == stay:
            return frozenset(stay)
        stay = reach


def all_end_components(game, controller, sub):
    """Every set inside `sub`, by brute force, where the controller can
    stay forever and every member reaches every other under the kept
    edges."""
    def kept(v, s):
        return [u for u in game.succ[v] if u in s]

    def is_end_component(s):
        for v in s:
            if game.owners[v] is controller:
                if not kept(v, s):
                    return False
            elif len(kept(v, s)) != len(game.succ[v]):
                return False
        for v in s:
            seen, frontier = {v}, [v]
            while frontier:
                for u in kept(frontier.pop(), s):
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if seen != s:
                return False
        return True

    members = sorted(sub)
    return [s for k in range(1, len(members) + 1)
            for s in map(frozenset, itertools.combinations(members, k))
            if is_end_component(s)]


def naive_end_components(game, controller, sub):
    """The maximal end components inside `sub`, by brute force."""
    found = all_end_components(game, controller, sub)
    return {s for s in found if not any(s < t for t in found)}


@given(st.integers(0, 10**6), st.integers(0, 1023), st.integers(0, 1023),
       st.integers(0, 1023), st.sampled_from([Owner.PLAYER0, Owner.PLAYER1]))
@settings(max_examples=200)
def test_attractors_and_end_components_match_naive_fixpoints(seed, drop1, drop2, target_mask,
                                                             player):
    game = random_parity_game(random.Random(seed), max_configs=10)
    sub = sub_arena(game, ~(drop1 & drop2))
    targets = frozenset(v for v in range(len(game)) if target_mask >> v & 1)
    attractor, moves = parity_mod._pos_attr(game, player, targets, sub)
    assert attractor == naive_pos_attr(game, player, targets, sub)
    assert set(moves) == {v for v in attractor - targets if game.owners[v] is player}
    check_attractor_moves(game, player, targets & sub, attractor, moves)
    closed = kept_by(game, player, targets, sub)
    assert parity_mod._as_attr(game, player, closed, sub) == \
        naive_as_attr(game, player, closed, sub)
    assert set(parity_mod._max_end_components(game, player, sub)) == \
        naive_end_components(game, player, sub)


@given(st.integers(0, 10**6), st.integers(0, 1023),
       st.sampled_from([Owner.PLAYER0, Owner.PLAYER1]), st.sampled_from([0, 1]))
@settings(max_examples=150, deadline=None)
def test_winning_end_components_match_the_brute_force_union(seed, mask, controller, parity):
    # The union of every end component, found by brute force, whose least
    # priority has the given parity.
    game = random_parity_game(random.Random(seed), max_configs=10)
    sub = sub_arena(game, mask)
    expected = set()
    for component in all_end_components(game, controller, sub):
        if min(game.priority[v] for v in component) % 2 == parity:
            expected |= component
    assert parity_mod._winning_end_components(game, controller, sub, parity) == expected


def test_as_attr_iterates_to_its_greatest_fixpoint():
    # One round of dropping the opponent's attractor of its refuge leaves
    # {1, 2, 5}; inside that set the opponent has a new refuge.
    game = random_parity_game(random.Random(30), max_configs=10)
    sub = sub_arena(game, ~0)
    closed = kept_by(game, Owner.PLAYER0, frozenset({1}), sub)
    assert closed == {1}
    assert parity_mod._as_attr(game, Owner.PLAYER0, closed, sub) == \
        naive_as_attr(game, Owner.PLAYER0, closed, sub) == {1}


# ---------------------------------------------------------------------------
# Almost-sure regions and their strategies: value 1 and value 0 are the two
# players' almost-sure regions, and each strategy wins almost surely.


def check_almost_sure_strategy(game, region, choices):
    parity_mod._certify_as(game, region, choices)
    mine = parity_mod._player_states(game, Owner.PLAYER0)
    assert set(choices) == {v for v in mine if v in region}
    sigma_full = {v: choices.get(v, game.succ[v][0]) for v in mine}
    response = parity_mod._best_response_values(game, sigma_full)
    assert all(response[v] == ONE for v in region)


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_almost_sure_regions_are_the_value_one_and_zero_sets(seed):
    primal = random_parity_game(random.Random(seed), max_configs=8)
    full = frozenset(range(len(primal)))
    for game in (primal, dual_game(primal)):
        values = solve_parity_oracle(game, witnesses=False).values
        won, sigma0 = parity_mod._as_strategy(game, full)
        lost, sigma1 = parity_mod._as_strategy(dual_game(game), full)
        assert won == {v for v in full if values[v] == ONE}
        assert lost == {v for v in full if values[v] == ZERO}
        check_almost_sure_strategy(game, won, sigma0)
        check_almost_sure_strategy(dual_game(game), lost, sigma1)


def test_dual_region_keeps_what_the_attractor_step_leaves_out():
    # Player 1 wins almost surely at c0, c3, c7 and c9 too, which lie
    # outside the region's almost-sure attractor in the first round.
    P, P0, P1 = Owner.PROBABILISTIC, Owner.PLAYER0, Owner.PLAYER1
    owners = (P, P, P, P1, P, P1, P0, P0, P1, P0)
    succ = ((4, 9), (1,), (2,), (9,), (5,), (2,), (1, 9), (0, 5), (2, 9), (0, 9))
    priority = (2, 0, 1, 3, 3, 0, 3, 1, 3, 3)
    names = [f"c{i}" for i in range(10)]
    kernel = {names[v]: {names[u]: ONE for u in succ[v]} for v in (1, 2, 4, 5)}
    kernel["c0"] = {"c4": F(1, 3), "c9": F(2, 3)}
    game = make_game([(names[v], owners[v], priority[v], None) for v in range(10)],
                     [(names[v], names[u]) for v in range(10) for u in succ[v]], kernel)
    full = frozenset(range(10))
    values = solve_parity_oracle(game, witnesses=False).values
    assert {v for v in full if values[v] == ZERO} == {0, 2, 3, 4, 5, 7, 8, 9}
    lost, sigma1 = parity_mod._as_strategy(dual_game(game), full)
    assert lost == {0, 2, 3, 4, 5, 7, 8, 9}
    check_almost_sure_strategy(dual_game(game), lost, sigma1)
    won, sigma0 = parity_mod._as_strategy(game, full)
    assert won == {1, 6}
    check_almost_sure_strategy(game, won, sigma0)
    assert solve_parity(game) == solve_parity_oracle(game)


def pruned_arenas(game, won):
    """The arenas of the two almost-sure recursions in ``solve_values``:
    Player 0's outside Player 1's positive attractor of the absorbing
    configurations of odd priority, Player 1's outside Player 0's
    positive attractor of Player 0's region `won`."""
    full = frozenset(range(len(game)))
    sinks = {v for v in full if game.succ[v] == (v,) and game.priority[v] % 2}
    return (full - naive_pos_attr(game, Owner.PLAYER1, sinks, full),
            full - naive_pos_attr(game, Owner.PLAYER0, won, full))


@given(st.integers(0, 10**6), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=150)
def test_pruned_arenas_keep_both_almost_sure_regions(seed, settled_mask, won_mask):
    primal = random_parity_game(random.Random(seed), max_configs=8)
    settled = settle(primal, {v: bool(won_mask >> v & 1) for v in range(len(primal))
                              if settled_mask >> v & 1})
    full = frozenset(range(len(primal)))
    for game in (primal, dual_game(primal), settled, dual_game(settled)):
        values = solve_parity_oracle(game, witnesses=False).values
        dual = dual_game(game)
        won = parity_mod._as_strategy(game, full)[0]
        lost = parity_mod._as_strategy(dual, full)[0]
        assert won == {v for v in full if values[v] == ONE}
        assert lost == {v for v in full if values[v] == ZERO}
        arena0, arena1 = pruned_arenas(game, won)
        assert won <= arena0 and lost <= arena1
        pruned_won, sigma0 = parity_mod._as_strategy(game, arena0)
        pruned_lost, sigma1 = parity_mod._as_strategy(dual, arena1)
        assert (pruned_won, pruned_lost) == (won, lost)
        check_almost_sure_strategy(game, won, sigma0)
        check_almost_sure_strategy(dual, lost, sigma1)


def top_level_arenas(monkeypatch):
    """The arena of each ``_as_strategy`` call that is not made by another."""
    as_strategy, arenas, depth = parity_mod._as_strategy, [], [0]

    def recording(game, sub):
        if not depth[0]:
            arenas.append(sub)
        depth[0] += 1
        try:
            return as_strategy(game, sub)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(parity_mod, "_as_strategy", recording)
    return arenas


def test_settled_game_solves_its_regions_on_pinned_arenas(monkeypatch):
    # random_game(Random(19), max_configs=12) with its two obligations
    # settled, the first as won: Player 1 reaches the lost sinks from one
    # configuration, and Player 0 reaches its region from three.
    game = random_game(random.Random(19), max_configs=12, max_obligations=3)
    game = settle(game, {u: i % 2 == 0 for i, u in enumerate(game.obligation_indices())})
    arenas = top_level_arenas(monkeypatch)
    values = parity_mod.solve_values(game)
    assert values == solve_parity_oracle(game, witnesses=False).values
    assert len(game) == 12 and [len(arena) for arena in arenas] == [11, 9]
    assert (values.count(ONE), values.count(ZERO)) == (2, 9)
    won = frozenset(v for v in range(12) if values[v] == ONE)
    assert tuple(arenas) == pruned_arenas(game, won)


@given(st.integers(0, 10**6), st.integers(0, 255))
@settings(max_examples=100)
def test_every_two_player_solve_certifies_both_regions(seed, settled_mask):
    certify, certified = parity_mod._certify_as, []

    def counting(game, region, choices):
        certified.append(region)
        certify(game, region, choices)

    primal = random_parity_game(random.Random(seed), max_configs=10)
    settled = settle(primal, {v: v % 2 == 0 for v in range(len(primal))
                              if settled_mask >> v & 1})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parity_mod, "_certify_as", counting)
        for game in (primal, dual_game(primal), settled):
            certified.clear()
            values = parity_mod.solve_values(game)
            two_player = parity_mod._closed_form(game) is None
            assert len(certified) == (2 if two_player else 0)
            if two_player:
                assert certified == [frozenset(v for v, x in enumerate(values) if x == r)
                                     for r in (ONE, ZERO)]


def test_certificate_rejects_strategies_that_do_not_win_almost_surely():
    # a: Player 0 chooses between an odd self-loop and the even sink b;
    # c: Player 1 chooses between b and a.
    game = make_game([("a", Owner.PLAYER0, 1, None), ("b", Owner.PROBABILISTIC, 0, None),
                      ("c", Owner.PLAYER1, 0, None)],
                     [("a", "a"), ("a", "b"), ("b", "b"), ("c", "a"), ("c", "b")],
                     {"b": {"b": ONE}})
    full = frozenset(range(3))
    assert parity_mod._as_strategy(game, full) == (full, {0: 1})
    parity_mod._certify_as(game, full, {0: 1})
    with pytest.raises(InternalInvariantError):  # stays on the odd loop
        parity_mod._certify_as(game, full, {0: 0})
    with pytest.raises(InternalInvariantError):  # a is not closed
        parity_mod._certify_as(game, frozenset({0, 2}), {0: 0})
    with pytest.raises(InternalInvariantError):  # c is not closed
        parity_mod._certify_as(game, frozenset({1, 2}), {})
    with pytest.raises(InternalInvariantError):  # no move at a
        parity_mod._certify_as(game, full, {})


# ---------------------------------------------------------------------------
# The trap fixpoint and the end-component refinement against the loops
# they replaced: whole sweeps until nothing changes, and a refinement that
# recomputes the SCCs of the whole live set every round.


def naive_sure_safe(game, player, allowed, sub):
    safe = set(allowed & sub)
    succ = {v: [u for u in game.succ[v] if u in sub] for v in safe}
    changed = True
    while changed:
        changed = False
        for v in list(safe):
            if game.owners[v] is player:
                ok = any(u in safe for u in succ[v])
            else:
                ok = bool(succ[v]) and all(u in safe for u in succ[v])
            if not ok:
                safe.discard(v)
                changed = True
    return frozenset(safe)


def naive_max_end_components(game, controller, sub):
    everything = frozenset(range(len(game)))
    alive = set(sub)
    while True:
        alive = set(naive_sure_safe(game, controller, frozenset(alive), everything))
        if not alive:
            return []
        order = sorted(alive)
        pos = {v: i for i, v in enumerate(order)}
        comps = tarjan_scc(len(order),
                           lambda i: (pos[u] for u in game.succ[order[i]] if u in alive))
        comp_of = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                comp_of[order[i]] = ci
        removed = False
        for v in list(alive):
            if game.owners[v] is controller:
                if not any(u in alive and comp_of[u] == comp_of[v] for u in game.succ[v]):
                    alive.discard(v)
                    removed = True
            else:
                if any(comp_of.get(u) != comp_of[v] for u in game.succ[v]):
                    alive.discard(v)
                    removed = True
        if not removed:
            grouped = {}
            for v in alive:
                grouped.setdefault(comp_of[v], set()).add(v)
            return [frozenset(c) for c in grouped.values()]


def random_subset(rng, n, density):
    return frozenset(v for v in range(n) if rng.random() < density)


def test_sure_safe_matches_the_sweep():
    seen = {"allowed outside sub": 0, "no successor in sub": 0, "proper trap": 0}
    for seed in range(150):
        rng = random.Random(seed)
        primal = random_parity_game(rng, max_configs=40)
        n = len(primal)
        for game in (primal, dual_game(primal)):
            for _ in range(3):
                sub = random_subset(rng, n, rng.choice((0.6, 0.9, 1.0)))
                allowed = random_subset(rng, n, rng.choice((0.5, 0.8, 1.0)))
                seen["allowed outside sub"] += not allowed <= sub
                seen["no successor in sub"] += any(
                    not any(u in sub for u in game.succ[v]) for v in allowed & sub)
                for player in (Owner.PLAYER0, Owner.PLAYER1):
                    # mutable copies, so a mutation would show
                    allowed_arg, sub_arg = set(allowed), set(sub)
                    fast = parity_mod._sure_safe(game, player, allowed_arg, sub_arg)
                    assert (allowed_arg, sub_arg) == (allowed, sub)
                    assert fast == naive_sure_safe(game, player, allowed, sub)
                    seen["proper trap"] += bool(fast) and fast != allowed & sub
    assert min(seen.values()) > 0, seen


def test_sure_safe_matches_the_sweep_on_a_long_ladder():
    # Configurations alternate Player 1 and random; each has a forward and
    # a back edge.  Without the top rung everything is lost for Player 0,
    # one configuration per pass of the sweep, which is quadratic.
    n = 2000
    configs, edges, kernel = [], [], {}
    for i in range(n):
        name, forward, back = f"c{i}", f"c{min(i + 1, n - 1)}", f"c{max(i - 1, 0)}"
        owner = (Owner.PLAYER1, Owner.PROBABILISTIC)[i % 2]
        configs.append((name, owner, i % 7, None))
        edges += [(name, t) for t in {forward, back}]
        if owner is Owner.PROBABILISTIC:
            kernel[name] = {forward: HALF, back: HALF}
    game = make_game(configs, edges, kernel)
    everything = frozenset(range(n))
    allowed = everything - {n - 1}
    for player in (Owner.PLAYER0, Owner.PLAYER1):
        assert parity_mod._sure_safe(game, player, allowed, everything) == \
            naive_sure_safe(game, player, allowed, everything)
    assert not parity_mod._sure_safe(game, Owner.PLAYER0, allowed, everything)


def test_max_end_components_match_the_whole_set_refinement():
    seen = {"several components": 0, "none": 0}
    for seed in range(150):
        rng = random.Random(seed)
        primal = random_parity_game(rng, max_configs=40)
        n = len(primal)
        for game in (primal, dual_game(primal)):
            mask = random_subset(rng, n, 0.8)
            for controller in (Owner.PLAYER0, Owner.PLAYER1):
                # nested like the sub-arenas of _mdp_max_parity
                for least in range(4):
                    sub = frozenset(v for v in mask if game.priority[v] >= least)
                    fast = parity_mod._max_end_components(game, controller, sub)
                    expect = naive_max_end_components(game, controller, sub)
                    assert len(fast) == len(set(fast))
                    assert set(fast) == set(expect)
                    seen["several components"] += len(fast) > 1
                    seen["none"] += not fast
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("seed, expected", [
    # Decomposing every level of the whole arena took 9 calls over 44
    # configurations.
    (24, [(9, 1), (1, 0), (7, 0), (5, 1), (6, 2)]),
    # The one component of priority >= 0 is winning, so priority >= 4 is
    # not decomposed; it took a call over 4 configurations.
    (54, [(5, 1)]),
])
def test_end_components_are_refined_inside_the_level_before(monkeypatch, seed, expected):
    # _mdp_max_parity and _certify_as decompose each priority level inside
    # the components of the level before (winning ones left out), and stop
    # when none is left; recorded as (configurations, components) per call.
    game = random_parity_game(random.Random(seed), max_configs=30, max_priority=5)
    parts = []
    decompose = parity_mod._max_end_components

    def recording(game, controller, sub):
        components = decompose(game, controller, sub)
        parts.append((len(sub), len(components)))
        return components

    monkeypatch.setattr(parity_mod, "_max_end_components", recording)
    values = parity_mod.solve_values(game)
    assert parts == expected
    assert values == solve_parity_oracle(game).values


# ---------------------------------------------------------------------------
# Canonical witnesses: the naive one-at-a-time loop they replaced, which
# re-solves the game for every successor of every owned configuration,
# and the graph-only keep test and certification that replace the re-solves.


def naive_canonical_strategy(game, values, player, solver):
    mine = (Owner.PLAYER0, Owner.PLAYER1)[player]
    current, choices = game, {}
    for v in parity_mod._player_states(game, mine):
        for u in current.succ[v]:
            trial = restrict_choice(current, {v: u})
            if solver(trial) == values:
                current, choices[v] = trial, u
                break
        else:
            raise AssertionError("no choice preserves the values")
    return PureMemorylessStrategy.from_dict(player, choices)


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_first_keeping_choices_match_the_naive_loops(seed):
    primal = random_parity_game(random.Random(seed), max_configs=10)
    for game in (primal, dual_game(primal)):
        values = parity_mod.solve_values(game)
        for player in (0, 1):
            assert parity_mod._canonical_strategy(game, values, player) == \
                naive_canonical_strategy(game, values, player, parity_mod.solve_values)


def restricted(game, keep):
    """`game` with each configuration in `keep` left the listed successors."""
    return replace(game, succ=tuple(tuple(keep.get(v, succ)) for v, succ in enumerate(game.succ)))


def random_restriction(game, owner, rng):
    return restricted(game, {v: [u for u in game.succ[v] if rng.random() < 0.6]
                             or [rng.choice(game.succ[v])]
                             for v in range(len(game)) if game.owners[v] is owner})


def assert_keep_test_is_exact(game, trial, values, player):
    seen, rank, classes, positive = parity_mod._player_view(trial, values, player)
    keeps = all(parity_mod._keeps_values(seen, rank, classes[k]) is not None for k in positive)
    assert keeps == (parity_mod.solve_values(trial) == values)
    return keeps


# Seeds of max_configs=14 games with two or three fractional values.
FRACTIONAL_SEEDS = (445, 1727, 1257, 328)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=300)
@example(FRACTIONAL_SEEDS[0], 0)
@example(FRACTIONAL_SEEDS[1], 1)
def test_keep_test_agrees_with_a_re_solve(seed, restriction_seed):
    primal = random_parity_game(random.Random(seed), max_configs=14)
    rng = random.Random(restriction_seed)
    for game in (primal, dual_game(primal)):
        values = parity_mod.solve_values(game)
        for player, owner in ((0, Owner.PLAYER0), (1, Owner.PLAYER1)):
            for _ in range(3):
                assert_keep_test_is_exact(game, random_restriction(game, owner, rng),
                                          values, player)


def test_keep_test_agrees_with_a_re_solve_on_every_restriction_of_fractional_games():
    outcomes = set()
    for seed in FRACTIONAL_SEEDS:
        primal = random_parity_game(random.Random(seed), max_configs=14)
        for game in (primal, dual_game(primal)):
            values = parity_mod.solve_values(game)
            assert len(set(values) - {ZERO, ONE}) >= 2
            for player, owner in ((0, Owner.PLAYER0), (1, Owner.PLAYER1)):
                mine = parity_mod._player_states(game, owner)
                subsets = [[c for k in range(1, len(game.succ[v]) + 1)
                            for c in itertools.combinations(game.succ[v], k)] for v in mine]
                for combo in itertools.product(*subsets):
                    trial = restricted(game, dict(zip(mine, combo)))
                    outcomes.add(assert_keep_test_is_exact(game, trial, values, player))
    assert outcomes == {True, False}


def plant(patch, keeps, held=None):
    """Make every keep test answer `keeps` (yes with no moves, or no) and
    every almost-sure solve win its whole arena with the moves `held`,
    or win nothing when `held` is None, so no class holds a strategy."""
    patch.setattr(parity_mod, "_keeps_values", lambda *args: {} if keeps else None)
    patch.setattr(parity_mod, "_as_strategy",
                  lambda game, sub: (frozenset(), {}) if held is None else (sub, held))


def test_canonical_strategy_tests_the_final_restriction(monkeypatch):
    # A lying keep test plants the first (or, answering no, the last)
    # same-valued successor everywhere; so does a lying almost-sure
    # strategy that holds one of them, when every test fails.  In these
    # games that loses value for the player, so the certification of the
    # finished strategy must reject it.
    for seed, player in ((0, 1), (36, 0)):
        game = random_parity_game(random.Random(seed), max_configs=10)
        values = parity_mod.solve_values(game)
        for answer in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                plant(patch, answer)
                with pytest.raises(InternalInvariantError):
                    parity_mod._canonical_strategy(game, values, player)
            with pytest.MonkeyPatch.context() as patch:
                plant(patch, False, planted_strategy(game, values, player, answer))
                with pytest.raises(InternalInvariantError):
                    parity_mod._canonical_strategy(game, values, player)


def planted_strategy(game, values, player, first):
    """The strategy a keep test answering always yes (`first`) or always
    no plants: the first or last successor of the same value, and the
    first where the player loses almost surely."""
    mine = (Owner.PLAYER0, Owner.PLAYER1)[player]
    lost = (ZERO, ONE)[player]
    choices = {}
    for v in parity_mod._player_states(game, mine):
        same = [u for u in game.succ[v] if values[u] == values[v]]
        choices[v] = same[0] if first or values[v] == lost else same[-1]
    return choices


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=150)
def test_certification_rejects_exactly_the_planted_strategies_that_lose_value(seed, answer):
    primal = random_parity_game(random.Random(seed), max_configs=10)
    for game in (primal, dual_game(primal)):
        values = parity_mod.solve_values(game)
        for player in (0, 1):
            planted = planted_strategy(game, values, player, answer)
            if player == 0:
                secures = parity_mod._best_response_values(game, planted) == values
            else:
                secures = parity_mod._best_response_values(dual_game(game), planted) == \
                    tuple(ONE - x for x in values)
            # Planted by the keep test alone, or by a held strategy that
            # answers where every keep test fails.
            for keeps, held in ((answer, None), (False, planted)):
                with pytest.MonkeyPatch.context() as patch:
                    plant(patch, keeps, held)
                    if secures:
                        assert parity_mod._canonical_strategy(game, values, player) == \
                            PureMemorylessStrategy.from_dict(player, planted)
                    else:
                        with pytest.raises(InternalInvariantError):
                            parity_mod._canonical_strategy(game, values, player)


def no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a canonical witness solved a linear system")

    for name in ("solve_values", "reach_probability", "parity_measure"):
        monkeypatch.setattr(parity_mod, name, refuse)


def test_canonical_strategy_needs_fewer_solves_than_the_naive_loop(monkeypatch):
    # The naive loop solves the game 7 times; the keep tests solve none.
    game = random_parity_game(random.Random(16), max_configs=10)
    values = parity_mod.solve_values(game)
    calls = []

    def counting(trial):
        calls.append(trial)
        return parity_mod.solve_values(trial)

    naive = [naive_canonical_strategy(game, values, p, counting) for p in (0, 1)]
    assert len(calls) == 7
    no_linear_algebra(monkeypatch)
    assert [parity_mod._canonical_strategy(game, values, p) for p in (0, 1)] == naive


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(parity_mod, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(parity_mod, name, counting)
    return calls


def test_canonical_strategy_takes_hopeless_moves_untested(monkeypatch):
    # Player 0 loses at a and b whatever it does, so each takes its first
    # successor without a keep test, and no class game is solved; the
    # naive loop solves once per configuration.
    game = make_game([("a", Owner.PLAYER0, 1, None), ("b", Owner.PLAYER0, 1, None),
                      ("x", Owner.PROBABILISTIC, 1, None), ("y", Owner.PROBABILISTIC, 1, None)],
                     [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("x", "x"), ("y", "y")],
                     {"x": {"x": ONE}, "y": {"y": ONE}})
    values = parity_mod.solve_values(game)
    assert values == (ZERO,) * 4
    calls = []

    def counting(trial):
        calls.append(trial)
        return parity_mod.solve_values(trial)

    assert naive_canonical_strategy(game, values, 0, counting).as_dict() == {0: 2, 1: 2}
    assert len(calls) == 2
    tests = count_calls(monkeypatch, "_keeps_values")
    regions = count_calls(monkeypatch, "_as_strategy")
    no_linear_algebra(monkeypatch)
    assert parity_mod._canonical_strategy(game, values, 0).as_dict() == {0: 2, 1: 2}
    assert (len(tests), len(regions)) == (0, 0)


def test_canonical_strategy_takes_the_last_candidate_untested(monkeypatch):
    # Both configurations win almost surely.  At a the odd self-loop is
    # tested and fails, so b is taken untested.  At b the strategy that
    # won the class game before any choice moves to a, the first
    # candidate, and agrees with a's choice, so a is taken untested too.
    # The finished strategy is certified on the graph, not tested again.
    game = make_game([("a", Owner.PLAYER0, 1, None), ("b", Owner.PLAYER0, 0, None)],
                     [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], {})
    values = parity_mod.solve_values(game)
    assert values == (ONE, ONE)
    with pytest.MonkeyPatch.context() as patch:
        tests = count_calls(patch, "_keeps_values")
        certified = count_calls(patch, "_certify_as")
        assert parity_mod._canonical_strategy(game, values, 0).as_dict() == {0: 1, 1: 0}
        assert [trial.succ for trial, _, _ in tests] == [((0,), (0, 1))]
        assert len(certified) == 1
    # Planted without held strategies, the losing self-loop at a is
    # rejected by the certification.
    plant(monkeypatch, True)
    with pytest.raises(InternalInvariantError):
        parity_mod._canonical_strategy(game, values, 0)


def test_held_strategies_out_of_step_with_the_choices_answer_nothing(monkeypatch):
    # x must move to a; a and b may move to either.  Every keep test
    # answers no, and the almost-sure solve returns lying moves.  Moves
    # that disagree with x's choice, fixed before them, that a's choice
    # leaves, or that do not win the whole class answer nothing after
    # that, so a and b both take their last candidate.
    game = make_game([("x", Owner.PLAYER0, 0, None), ("a", Owner.PLAYER0, 1, None),
                      ("b", Owner.PLAYER0, 0, None)],
                     [("x", "a"), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], {})
    values = parity_mod.solve_values(game)
    assert values == (ONE, ONE, ONE)
    for wins, moves in ((True, {0: 2, 1: 1, 2: 1}), (True, {0: 1, 2: 1}),
                        (False, {0: 1, 1: 1, 2: 1})):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parity_mod, "_keeps_values", lambda *args: None)
            patch.setattr(parity_mod, "_as_strategy",
                          lambda game, sub: (sub if wins else frozenset(), moves))
            assert parity_mod._canonical_strategy(game, values, 0).as_dict() == \
                {0: 1, 1: 2, 2: 2}


def reference_canonical_strategy(game, values, player):
    """The test-every-candidate loop: each choice with more than one
    candidate of a class of positive value runs keep tests until one
    passes, and the last candidate is taken untested."""
    seen, rank, classes, positive = parity_mod._player_view(game, values, player)
    choices = {}
    for v in parity_mod._player_states(game, (Owner.PLAYER0, Owner.PLAYER1)[player]):
        same = [u for u in game.succ[v] if rank[u] == rank[v]]
        if not same:
            raise InternalInvariantError(f"no choice at {game.names[v]} keeps the values")
        if rank[v] not in positive:
            same = same[:1]
        choices[v] = next((u for u in same[:-1] if parity_mod._keeps_values(
            restrict_choice(seen, {**choices, v: u}), rank, classes[rank[v]]) is not None),
            same[-1])
    for k in positive:
        class_game, arena = parity_mod._class_game(seen, rank, classes[k])
        parity_mod._certify_as(class_game, frozenset(v for v in arena if rank[v] >= k),
                               {v: u for v, u in choices.items() if rank[v] == k})
    return PureMemorylessStrategy.from_dict(player, choices)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
@example(FRACTIONAL_SEEDS[0])
def test_held_strategies_give_the_strategy_of_the_test_every_candidate_loop(seed):
    primal = random_parity_game(random.Random(seed), max_configs=40)
    for game in (primal, dual_game(primal)):
        values = parity_mod.solve_values(game)
        for player in (0, 1):
            assert parity_mod._canonical_strategy(game, values, player) == \
                reference_canonical_strategy(game, values, player)


def test_held_strategies_halve_the_keep_tests_of_a_large_game(monkeypatch):
    # 192 configurations, 27 value classes.  Both witnesses are the
    # reference loop's; of its 16 keep tests, 8 are answered by a held
    # strategy.
    game = random_parity_game(random.Random(536), max_configs=200, max_priority=5)
    values = parity_mod.solve_values(game)
    tests = count_calls(monkeypatch, "_keeps_values")
    reference = [reference_canonical_strategy(game, values, p) for p in (0, 1)]
    run = len(tests)
    assert [parity_mod._canonical_strategy(game, values, p) for p in (0, 1)] == reference
    assert (run, len(tests) - run) == (16, 8)


# ---------------------------------------------------------------------------
# Class games: each is built from its own class, and solves as the game with
# everything outside the class settled does.


def whole_class_game(game, rank, cls, boundary_won):
    """The class game of `cls` with every configuration outside the class
    settled, as won above it and as lost below, and each chance member
    with a successor outside it settled as `boundary_won`."""
    k = rank[cls[0]]
    settled = {v: rank[v] > k for v in range(len(game)) if rank[v] != k}
    settled.update((v, boundary_won) for v in cls if game.owners[v] is Owner.PROBABILISTIC
                   and any(rank[u] != k for u in game.succ[v]))
    return settle(game, settled)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
@example(FRACTIONAL_SEEDS[0])
def test_class_games_solve_as_the_whole_game_class_games(seed):
    primal = random_parity_game(random.Random(seed), max_configs=30)
    for game in (primal, dual_game(primal)):
        values = parity_mod.solve_values(game)
        for player in (0, 1):
            seen, rank, classes, _ = parity_mod._player_view(game, values, player)
            for cls in classes:
                members = frozenset(cls)
                for boundary_won in (True, False):
                    reference = whole_class_game(seen, rank, cls, boundary_won)
                    arena = members.union(*(reference.succ[v] for v in members))
                    class_game = parity_mod._class_game(seen, rank, cls, boundary_won)
                    assert class_game[1] == arena
                    assert parity_mod._as_strategy(*class_game) == \
                        parity_mod._as_strategy(reference, arena)


def test_class_games_touch_only_their_class_and_its_successors(monkeypatch):
    # 192 configurations, 27 value classes, and both sides take class
    # steps on their residual games.  The 122 class games, of the
    # residual games in the class steps and of the game in the witnesses,
    # read 1785 configurations; settling all of each game, as a class
    # game once did, touches 22008.
    game = random_parity_game(random.Random(536), max_configs=200, max_priority=5)
    class_game, built = parity_mod._class_game, []

    def recording(game, rank, cls, boundary_won=True):
        result = class_game(game, rank, cls, boundary_won)
        built.append((len(game), result[1],
                      frozenset(cls).union(*(game.succ[v] for v in cls))))
        return result

    monkeypatch.setattr(parity_mod, "_class_game", recording)
    steps = count_calls(monkeypatch, "_class_step")
    values = solve_parity(game).values
    assert (len(game), len(set(values))) == (192, 27)
    assert steps
    assert all(arena <= bound for _, arena, bound in built)
    assert (len(built), sum(len(arena) for _, arena, _ in built),
            sum(size for size, _, _ in built)) == (122, 1785, 22008)


def beaten(game, certificate, player, config, value):
    """Whether some opposing strategy, enumerated, holds `certificate`
    below (for Player 0) or above (for Player 1) `value` at `config`."""
    for s in parity_mod._strategies(game, (Owner.PLAYER1, Owner.PLAYER0)[player]):
        opponent = PureMemorylessStrategy.from_dict(1 - player, s)
        pair = (certificate, opponent) if player == 0 else (opponent, certificate)
        achieved = parity_measure(induce_chain(game, *pair), game.priority)[config]
        if (achieved < value) if player == 0 else (achieved > value):
            return True
    return False


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_threshold_certificates_are_rejected_exactly_when_an_opponent_beats_them(seed, first):
    # The threshold is the value, so >= gives Player 0 the verdict and >
    # gives it to Player 1.
    game = random_parity_game(random.Random(seed), max_configs=8)
    values = parity_mod.solve_values(game)
    for player, cmp in ((0, ">="), (1, ">")):
        certificate = PureMemorylessStrategy.from_dict(
            player, planted_strategy(game, values, player, first))
        for config in range(len(game)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(parity_mod, "_canonical_strategy", lambda *args: certificate)
                if beaten(game, certificate, player, config, values[config]):
                    with pytest.raises(InternalInvariantError):
                        decide_parity_threshold(game, config, cmp, values[config])
                else:
                    decision = decide_parity_threshold(game, config, cmp, values[config])
                    assert (decision.certificate_player, decision.certificate) == \
                        (player, certificate)


def test_threshold_certificate_checked_beyond_the_pair_budget(monkeypatch):
    # At c, Player 0 wins surely by moving to the won sink w; moving to d
    # lets Player 1 close the odd cycle c d.  The canonical opponent moves
    # d to its first successor e, which wins for Player 0 too, so it does
    # not expose the planted move to d; only another opponent does.
    # Thirteen unreachable Player-1 choices put the opponent's strategies
    # beyond the pair budget.
    rows = [("e", Owner.PROBABILISTIC, 0, None), ("c", Owner.PLAYER0, 1, None),
            ("d", Owner.PLAYER1, 2, None), ("w", Owner.PROBABILISTIC, 0, None),
            ("l", Owner.PROBABILISTIC, 1, None)]
    edges = [("c", "d"), ("c", "w"), ("d", "e"), ("d", "c"), ("e", "w"),
             ("w", "w"), ("l", "l")]
    for i in range(13):
        rows.append((f"x{i}", Owner.PLAYER1, 2, None))
        edges += [(f"x{i}", "w"), (f"x{i}", "l")]
    game = make_game(rows, edges, {"e": {"w": ONE}, "w": {"w": ONE}, "l": {"l": ONE}})
    assert math.prod(len(game.succ[v]) for v in range(len(game))
                     if game.owners[v] is Owner.PLAYER1) > Budgets().max_strategy_pairs
    values = parity_mod.solve_values(game)
    assert values[:3] == (ONE, ONE, ONE)
    planted = sigma({1: 2})
    optimal = parity_mod._canonical_strategy(game, values, 1)
    assert parity_measure(induce_chain(game, planted, optimal), game.priority)[1] == ONE
    canonical = parity_mod._canonical_strategy
    monkeypatch.setattr(parity_mod, "_canonical_strategy",
                        lambda game, values, player: canonical(game, values, player)
                        if player else planted)
    with pytest.raises(InternalInvariantError):
        decide_parity_threshold(game, 1, ">=", ONE)


def test_solved_games_can_be_garbage_collected():
    # Names no other test uses, so no equal game was solved before.
    game = random_parity_game(random.Random(3), max_configs=8)
    game = replace(game, names=tuple(f"collectable{i}" for i in range(len(game))))
    assert not game.is_chain()
    ref = weakref.ref(game)
    parity_mod.solve_values(game)
    solve_parity(game)
    del game
    gc.collect()
    assert ref() is None
