import gc
import itertools
import random
import re
from dataclasses import fields, replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obg import (BudgetExceededError, Dependency, InputFormatError,
                 InternalInvariantError, Obligation, build_gamma_game,
                 build_product_game, check_condition1, check_condition2,
                 check_condition3, decide_value, dual_game,
                 embed_chain_as_game, find_best_dependency, gamma_value,
                 make_chain, solve_parity, value_of_prefix, values_given_dependency, verify_dependency)
import obg
from obg.budgets import DEFAULT_BUDGETS, Budgets
from obg.generators import (random_automaton, random_game,
                            random_labeled_chain)
from obg.graphs import tarjan_scc
from obg.model import (ONE, ZERO, ObligationGame, Owner, explore_game,
                       game_from_rows, settle)
from obg.obligations import (SolveContext, _obligation_at, find_odd_cycle,
                             reachable_pairs)
from obg.parity import solve_values
import obg.parity as parity_mod

from conftest import load_chain_doc, load_game

HALF = F(1, 2)


def chain_game(name: str) -> ObligationGame:
    doc = load_chain_doc(name)
    return embed_chain_as_game(doc.chain, doc.priority_map(), doc.obligation_map())


def named_dependency(game, mapping):
    translate = {}
    for name, row in mapping.items():
        v = game.index(name)
        translate[v] = None if row is None else [(game.index(u), i) for u, i in row]
    return Dependency.from_mapping(game, translate)


def dependency_names(game, dep):
    return {game.names[v]: (None if row is None else sorted((game.names[u], i) for u, i in row))
            for v, row in dep.entries}


# ---------------------------------------------------------------------------
# Goodness conditions


def test_condition1_pass_and_fail(fig6):
    dep = named_dependency(fig6, {"s1": [("s1", 0)]})
    assert check_condition1(fig6, dep) == (True, None)
    geq = load_game("fig6_s4_geq.game.json")
    dangling = named_dependency(geq, {"s1": [("s4", 2)], "s4": None})
    ok, pointer = check_condition1(geq, dangling)
    assert not ok
    assert pointer == (geq.index("s1"), geq.index("s4"))


def test_condition1_all_bottom_passes(fig6):
    dep = named_dependency(fig6, {"s1": None})
    assert check_condition1(fig6, dep) == (True, None)


def test_condition2_self_loops(fig6):
    even = named_dependency(fig6, {"s1": [("s1", 0)]})
    ok, cycle = check_condition2(fig6, even)
    assert ok and cycle is None
    odd = named_dependency(fig6, {"s1": [("s1", 1)]})
    ok, cycle = check_condition2(fig6, odd)
    assert not ok
    assert cycle == ((fig6.index("s1"), fig6.index("s1"), 1),)


def test_condition2_fig6_dependency_passes(fig6):
    dep = named_dependency(fig6, {"s1": [("s1", 0), ("s1", 2)]})
    assert check_condition2(fig6, dep)[0]


def test_find_odd_cycle_mixed_labels():
    # 1-2 alternation has odd minimum; adding a 0 on one edge repairs it
    assert find_odd_cycle([(0, 1, 1), (1, 0, 2)]) is not None
    assert find_odd_cycle([(0, 1, 0), (1, 0, 1)]) is None


def scc_odd_cycle(edges):
    """The earlier find_odd_cycle, one SCC pass per odd label: for each
    odd label i, an i-labelled edge inside a component of the edges
    labelled >= i closes a cycle, completed by a breadth-first path
    inside that component."""
    labels = sorted({i for _, _, i in edges if i % 2 == 1})
    nodes = sorted({v for v, _, _ in edges} | {u for _, u, _ in edges})
    pos = {v: i for i, v in enumerate(nodes)}
    for i in labels:
        sub = [e for e in edges if e[2] >= i]
        adj = {v: [] for v in nodes}
        for e in sub:
            adj[e[0]].append(e)
        comps = tarjan_scc(len(nodes), lambda x: (pos[e[1]] for e in adj[nodes[x]]))
        comp_of = {nodes[x]: ci for ci, comp in enumerate(comps) for x in comp}
        for e in sorted(sub):
            v, u, lab = e
            if lab == i and comp_of[v] == comp_of[u]:
                if u == v:
                    return (e,)
                parent, frontier, seen = {}, [u], {u}
                while frontier:
                    x = frontier.pop(0)
                    if x == v:
                        break
                    for e2 in adj[x]:
                        y = e2[1]
                        if comp_of.get(y) == comp_of[v] and y not in seen:
                            seen.add(y)
                            parent[y] = e2
                            frontier.append(y)
                path, x = [], v
                while x != u:
                    path.append(parent[x])
                    x = parent[x][0]
                return (e, *reversed(path))
    return None


def test_find_odd_cycle_matches_the_scc_pass():
    rng = random.Random(20)
    found = 0
    for _ in range(2500):
        nodes = rng.randint(1, 7)
        edges = [(rng.randrange(nodes), rng.randrange(nodes), rng.randint(0, 5))
                 for _ in range(rng.randint(0, 14))]
        if edges and rng.random() < 0.3:  # a parallel edge with another label
            v, u, lab = rng.choice(edges)
            edges.insert(rng.randrange(len(edges) + 1), (v, u, (lab + rng.randint(1, 5)) % 6))
        cycle = find_odd_cycle(edges)
        assert cycle == scc_odd_cycle(edges)
        found += cycle is not None
    assert 500 < found < 2000


def test_condition3_fig6(fig6):
    dep = named_dependency(fig6, {"s1": [("s1", 0), ("s1", 2)]})
    ok, failing, gammas = check_condition3(fig6, dep)
    assert ok and failing is None
    assert dict(gammas)[fig6.index("s1")] == F(3, 4)


def test_condition3_unsatisfiable_threshold():
    mc = make_chain(["s", "t"], {"s": {"t": ONE}, "t": {"t": ONE}}, initial="s")
    game = embed_chain_as_game(mc, {"s": 0, "t": 0}, {"s": Obligation(">", ONE)})
    dep = named_dependency(game, {"s": []})
    ok, failing, _ = check_condition3(game, dep)
    assert not ok
    assert failing == (0, ONE)


# ---------------------------------------------------------------------------
# Gamma games


def test_gamma_empty_set_scores_obligation_free_mass(fig6):
    s1 = fig6.index("s1")
    assert gamma_value(fig6, s1, frozenset()) == ZERO


def test_gamma_fig6_value(fig6):
    s1 = fig6.index("s1")
    assert gamma_value(fig6, s1, {(s1, 0), (s1, 2)}) == F(3, 4)


def test_gamma_fig4_empty_set():
    game = chain_game("fig4.chain.json")
    assert gamma_value(game, 0, frozenset()) == F(2, 3)


def test_gamma_game_size_bound(fig6):
    s1 = fig6.index("s1")
    gamma, _ = build_gamma_game(fig6, s1, {(s1, 0)})
    assert len(gamma) <= len(fig6) * (fig6.max_priority() + 1) + 1


def test_gamma_game_needs_a_start_with_a_successor(fig6):
    s1 = fig6.index("s1")
    dead = replace(fig6, succ=tuple(() if v == s1 else succ for v, succ in enumerate(fig6.succ)))
    with pytest.raises(InternalInvariantError, match="monitor start s1 has no successor"):
        build_gamma_game(dead, s1, ())


def reference_monitor_product(game, start):
    """The min-priority monitor product of ``start``, unsettled, with its
    frozen nodes as (node, configuration, minimum) triples: the product of
    the game with the running minimum of the priorities since ``start``,
    in which the first visit to an obligation configuration is an
    absorbing node that keeps the configuration's priority."""
    def step(m_before, target):
        m = game.priority[target] if m_before is None else min(m_before, game.priority[target])
        return ("frozen" if game.obligation[target] is not None else "live", target, m)

    def expand(key):
        kind, config, m = key
        name, prio = game.names[config], game.priority[config]
        if kind == "frozen":
            return f"{name}!{m}", Owner.PROBABILISTIC, prio, None, [(key, ONE)]
        owner = game.owners[config]
        if owner is Owner.PROBABILISTIC:
            moves = [(step(m, t), p) for t, p in game.kernel_row(config)]
        else:
            moves = [step(m, t) for t in game.succ[config]]
        return f"{name}@{'start' if kind == 'root' else m}", owner, prio, None, moves

    product, keys = explore_game(("root", start, None), expand)
    return product, [(node, c, m) for node, (kind, c, m) in enumerate(keys) if kind == "frozen"]


def reference_gamma_game(game, start, pairs):
    """Reference gamma game: the monitor product of ``start``, then settled,
    each frozen node as won iff its pair is among ``pairs``."""
    product, frozen = reference_monitor_product(game, start)
    return settle(product, {node: (config, m) in pairs for node, config, m in frozen}), 0


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_gamma_game_equals_the_settled_monitor_product(seed, dual):
    rng = random.Random(seed)
    game = random_game(rng, max_configs=8, max_obligations=3)
    if dual:
        game = dual_game(game)
    for v in game.obligation_indices():
        pairs = sorted(reachable_pairs(game, v))
        for n in range(len(pairs) + 1):
            gamma, root = build_gamma_game(game, v, pairs[:n])
            reference, reference_root = reference_gamma_game(game, v, set(pairs[:n]))
            assert root == reference_root
            assert all(getattr(gamma, f.name) == getattr(reference, f.name)
                       for f in fields(ObligationGame))


def gamma_with_sinks(game, start, pairs):
    """Reference gamma game: every frozen monitor node moves to an absorbing
    WIN sink (priority 0) if its pair is chosen, else to a LOSE sink."""
    base, frozen = reference_monitor_product(game, start)
    win, lose = len(base), len(base) + 1
    redirect = {node: win if (config, m) in pairs else lose for node, config, m in frozen}
    rows = []
    for v, row in enumerate(base.kernel):
        if row is None:
            moves = [redirect.get(t, t) for t in base.succ[v]]
        else:
            moves = [(redirect.get(t, t), p) for t, p in row]
        rows.append((base.names[v], base.owners[v], base.priority[v], None, moves))
    rows.append(("WIN", Owner.PROBABILISTIC, 0, None, [(win, ONE)]))
    rows.append(("LOSE", Owner.PROBABILISTIC, 1, None, [(lose, ONE)]))
    return game_from_rows(rows), 0


def test_gamma_value_matches_the_sink_construction():
    rng = random.Random(808)
    checked = 0
    for _ in range(60):
        base = random_game(rng, max_configs=8, max_obligations=3)
        for game in (base, dual_game(base)):
            for v in game.obligation_indices():
                pairs = sorted(reachable_pairs(game, v))
                for chosen in (pairs, [], pairs[::2], pairs[1::2]):
                    reference, root = gamma_with_sinks(game, v, set(chosen))
                    gamma, start = build_gamma_game(game, v, chosen)
                    assert start == root
                    assert gamma.names + ("WIN", "LOSE") == reference.names
                    assert len(gamma) <= len(game) * (game.max_priority() + 1) + 1
                    assert gamma_value(game, v, chosen) == solve_values(reference)[root]
                    checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# Certificate verification


def test_verify_fig6_dependency(fig6):
    dep = named_dependency(fig6, {"s1": [("s1", 0), ("s1", 2)]})
    assert verify_dependency(fig6, dep).good


def test_verify_all_bottom_is_good(fig6):
    dep = named_dependency(fig6, {"s1": None})
    assert verify_dependency(fig6, dep).good


def test_verify_mutated_label_fails(fig6):
    mutated = named_dependency(fig6, {"s1": [("s1", 1), ("s1", 2)]})
    report = verify_dependency(fig6, mutated)
    assert not report.good
    assert report.condition2 is False


def test_verify_dropped_pair_fails_condition3(fig6):
    mutated = named_dependency(fig6, {"s1": [("s1", 0)]})
    report = verify_dependency(fig6, mutated)
    assert not report.good
    assert report.condition3 is False
    assert report.failing == (fig6.index("s1"), HALF)


def test_verify_rejects_ill_typed_dependency(fig6):
    with pytest.raises(InputFormatError):
        verify_dependency(fig6, named_dependency(fig6, {"s1": [("s2", 0)]}))
    with pytest.raises(InputFormatError):
        verify_dependency(fig6, named_dependency(fig6, {"s1": [("s1", 9)]}))


# ---------------------------------------------------------------------------
# Values from a certificate


def test_values_given_dependency_fig6(fig6):
    dep = named_dependency(fig6, {"s1": [("s1", 0), ("s1", 2)]})
    report = values_given_dependency(fig6, dep, witnesses=False)
    assert all(v == ONE for v in report.values)


def test_values_given_dependency_requires_goodness(fig6):
    with pytest.raises(InputFormatError):
        values_given_dependency(fig6, named_dependency(fig6, {"s1": [("s1", 1)]}))


def test_fig4_bottom_empty_distinction():
    game = chain_game("fig4.chain.json")
    empty = named_dependency(game, {"s1": []})
    bottom = named_dependency(game, {"s1": None})
    assert values_given_dependency(game, empty, witnesses=False).values[0] == ONE
    assert values_given_dependency(game, bottom, witnesses=False).values[0] == ZERO


# ---------------------------------------------------------------------------
# The search


def test_find_best_no_obligations_degenerates_to_parity(fig6):
    from obg.model import ObligationGame
    bare = ObligationGame(names=fig6.names, owners=fig6.owners, succ=fig6.succ,
                          kernel=fig6.kernel, priority=fig6.priority,
                          obligation=tuple(None for _ in fig6.names))
    dep, report = find_best_dependency(bare, witnesses=False)
    assert dep.entries == ()
    assert report.values == solve_parity(bare, witnesses=False).values


def test_find_best_fig6(fig6):
    dep, report = find_best_dependency(fig6, witnesses=False)
    row = dep.get(fig6.index("s1"))
    assert row is not None and {(fig6.index("s1"), 0), (fig6.index("s1"), 2)} <= row
    assert all(v == ONE for v in report.values)
    assert report.pre_values[fig6.index("s1")] == F(3, 4)


def test_find_best_fig6_geq_variant():
    game = load_game("fig6_s4_geq.game.json")
    dep, report = find_best_dependency(game, witnesses=False)
    assert dependency_names(game, dep) == {
        "s1": [("s4", 0), ("s4", 2)],
        "s4": [("s1", 3)],
    }
    assert all(v == ONE for v in report.values)


def test_find_best_fig6_gt_variant_has_no_good_dependency():
    game = load_game("fig6_s4_gt.game.json")
    dep, report = find_best_dependency(game, witnesses=False)
    assert dep.get(game.index("s1")) is None
    assert dep.get(game.index("s4")) is None
    assert report.fulfilled == frozenset()


def test_find_best_fig4_finds_empty_not_bottom():
    game = chain_game("fig4.chain.json")
    dep, report = find_best_dependency(game, witnesses=False)
    assert dep.get(0) == frozenset()
    assert report.values[0] == ONE


def test_find_best_fig5(fig5):
    dep, report = find_best_dependency(fig5, witnesses=False)
    assert dependency_names(fig5, dep) == {
        "v1": [("v5", 1)],
        "v5": [("v5", 0)],
    }
    assert all(v == ONE for v in report.values)
    assert report.pre_values[fig5.index("v5")] == F(3, 4)


def test_find_best_budget_errors(fig6):
    with pytest.raises(BudgetExceededError):
        find_best_dependency(load_game("fig6_s4_geq.game.json"),
                             budgets=Budgets(max_obligations=1))
    with pytest.raises(BudgetExceededError):
        find_best_dependency(fig6, budgets=Budgets(max_priority=2))


# ---------------------------------------------------------------------------
# Reference: met-set enumeration over odd-cycle-free certificates


def _rows_of(met, edge_set):
    grouped = {v: set() for v in met}
    for v, u, i in edge_set:
        grouped[v].add((u, i))
    return {v: frozenset(pairs) for v, pairs in grouped.items()}


def pair_universe(game, v, met, context=None):
    """Reachable pairs of v that target met obligations, minus odd self-loops."""
    return frozenset((u, m) for (u, m) in reachable_pairs(game, v, context=context)
                     if u in met and not (u == v and m % 2 == 1))


def _feasible_assignment(game, met, context, budget=20000):
    """Lexicographically first passing maximal certificate for a met-set.

    Branch-and-bound over odd-cycle-free subsets of the reachable
    reference graph: branching on the edges of some odd-minimal cycle
    covers every odd-cycle-free subset, and since monitor values are
    monotone in the edge set, a branch whose current rows already miss
    some threshold cannot contain a passing certificate and is pruned.
    Returns the rows, or None when the met-set admits no good certificate.
    """
    universe = tuple(sorted(
        (v, u, i)
        for v in met
        for (u, i) in pair_universe(game, v, met, context)))
    order = sorted(met)
    terminals = []
    explored = 0

    def bounds_pass(edge_set):
        rows = _rows_of(met, edge_set)
        return all(_obligation_at(game, v).holds(gamma_value(game, v, rows[v], context=context))
                   for v in order)

    def explore(current, kept):
        # Enumerates the odd-cycle-free subsets of `current` containing
        # `kept`: branch i of a cycle removes its i-th removable edge and
        # pins the earlier ones, so the subtrees partition the space.
        nonlocal explored
        explored += 1
        if explored > budget:
            raise BudgetExceededError(f"reference search explored more than {budget} edge sets")
        if not bounds_pass(current):
            return
        cycle = find_odd_cycle(sorted(current))
        if cycle is None:
            terminals.append(current)
            return
        pinned = set(kept)
        for e in (e for e in cycle if e not in kept):
            explore(current - {e}, frozenset(pinned))
            pinned.add(e)

    explore(frozenset(universe), frozenset())
    if not terminals:
        return None
    maximal = [t for t in terminals if not any(t < other for other in terminals)]
    return _rows_of(met, min(maximal, key=lambda t: tuple(sorted(t))))


def reference_dependency(game):
    """Good dependency with the largest met-set, by enumerating met-sets.

    A greatest-fixpoint pass first evicts every obligation that fails even
    with all reachable pairs into the remaining candidates; then candidate
    met-sets are tried largest-first, each by ``_feasible_assignment``.
    One ``SolveContext`` memoizes the monitor games of the whole search.
    """
    context = SolveContext(game)
    obligations = game.obligation_indices()
    candidates = set(obligations)
    changed = True
    while changed:
        changed = False
        for v in sorted(candidates):
            bound = gamma_value(game, v, pair_universe(game, v, frozenset(candidates), context),
                                context=context)
            if not _obligation_at(game, v).holds(bound):
                candidates.discard(v)
                changed = True
    order = sorted(candidates)
    for size in range(len(order), -1, -1):
        for combo in itertools.combinations(order, size):
            rows = _feasible_assignment(game, frozenset(combo), context)
            if rows is not None:
                return Dependency.from_mapping(game, {v: sorted(rows[v]) for v in combo})
    raise AssertionError("the empty met-set is always feasible")


def reference_samples():
    rng = random.Random(12345)
    for _ in range(300):
        yield random_game(rng, max_configs=12, max_obligations=4), DEFAULT_BUDGETS
    rng = random.Random(54321)
    for _ in range(100):
        aut = random_automaton(rng, max_states=3)
        chain = random_labeled_chain(rng, max_locations=4)
        yield build_product_game(aut, chain)[0], Budgets(max_obligations=64, max_priority=8)


def test_lifting_matches_the_met_set_enumeration():
    for game, budgets in reference_samples():
        dual_budgets = replace(budgets, max_priority=budgets.max_priority + 1)
        for instance, limits in ((game, budgets), (dual_game(game), dual_budgets)):
            dep, report = find_best_dependency(instance, budgets=limits, witnesses=False)
            expected = reference_dependency(instance)
            assert dep.defined() == expected.defined()
            assert report.values == values_given_dependency(
                instance, expected, witnesses=False).values
            assert verify_dependency(instance, dep).good


# ---------------------------------------------------------------------------
# Decision procedure and chains


def test_decide_value_fig6(fig6):
    decision = decide_value(fig6, fig6.index("s1"), ">=", ONE)
    assert decision.verdict and decision.value == ONE


def test_decide_value_fig2():
    game = chain_game("fig2_losing_path.chain.json")
    s1 = game.index("s1")
    assert not decide_value(game, s1, ">", HALF).verdict
    assert decide_value(game, s1, ">=", HALF).verdict


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_decide_value_complementary_with_dual(seed):
    game = random_game(random.Random(seed), max_configs=5)
    v = 0
    r = HALF
    primal = decide_value(game, v, ">=", r)
    dual = decide_value(dual_game(game), v, ">", ONE - r)
    assert primal.verdict != dual.verdict


# ---------------------------------------------------------------------------
# One solve context per operation


def live_contexts() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, SolveContext))


def test_decide_value_counters_are_exact_and_repeat():
    # both sides take more tests than lifts and answer most of them by a
    # Bellman step over a settled game; one primal row depends on its
    # labels, so its monitor game is solved once and then read from the memo
    game = random_game(random.Random(242))
    expected = {
        "primal": {"lifting_tests": 6, "lifts": 4,
                   "monitor_solves": 1, "memo_hits": 1,
                   "settled_solves": 5, "settled_answers": 7},
        "dual": {"lifting_tests": 18, "lifts": 10,
                 "monitor_solves": 1, "memo_hits": 0,
                 "settled_solves": 4, "settled_answers": 20},
    }
    for _ in range(2):
        decision = decide_value(game, 0, ">=", HALF)
        sides = {"primal": decision.primal[1], "dual": decision.dual[1]}
        assert {side: dict(rep.stats) for side, rep in sides.items()} == expected
        for rep in sides.values():
            assert_lookups_add_up(game, rep)


def assert_lookups_add_up(game, report):
    """Every lifting test, and one lookup per obligation configuration for
    condition 3 or its pre-value, is a monitor-game solve, a Bellman step
    over a settled game, or a hit of the monitor-game memo."""
    counts = dict(report.stats)
    assert (counts["lifting_tests"] + len(game.obligation_indices())
            == counts["monitor_solves"] + counts["settled_answers"] + counts["memo_hits"])


def test_reports_hold_counters_and_no_memo_table():
    before = live_contexts()
    game = random_game(random.Random(10))
    _, report = find_best_dependency(game, witnesses=False)
    assert live_contexts() == before
    assert [name for name, _ in report.stats] == list(SolveContext.COUNTERS)
    assert all(type(name) is str and type(count) is int for name, count in report.stats)
    assert not any(isinstance(getattr(report, f.name), (SolveContext, dict))
                   for f in fields(report))


def test_a_context_serves_one_game(fig6):
    s1 = fig6.index("s1")
    context = SolveContext(fig6)
    # s1 reaches itself with labels 0, 1 and 2: leaving out 1 depends on
    # the labels, so the monitor game is built, solved, then read back
    assert gamma_value(fig6, s1, {(s1, 0), (s1, 2)}, context=context) == F(3, 4)
    assert gamma_value(fig6, s1, [(s1, 2), (s1, 0)], context=context) == F(3, 4)
    # all of s1's labels, or none, are answered on the settled game, and
    # a pair s1 never reaches changes nothing
    assert gamma_value(fig6, s1, {(s1, 0), (s1, 1), (s1, 2)}, context=context) == ONE
    assert gamma_value(fig6, s1, {(s1, 0), (s1, 1), (s1, 2), (s1, 4)}, context=context) == ONE
    assert gamma_value(fig6, s1, (), context=context) == ZERO
    assert context.counters() == (("lifting_tests", 0), ("lifts", 0), ("monitor_solves", 1), ("memo_hits", 1),
                                  ("settled_solves", 2), ("settled_answers", 3))
    with pytest.raises(InputFormatError):
        gamma_value(dual_game(fig6), s1, (), context=context)


def test_no_process_wide_memo_in_the_package():
    memo = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|from functools import .*\bcache\b")
    for path in sorted(Path(obg.__file__).parent.glob("*.py")):
        assert not memo.search(path.read_text(encoding="utf-8")), path.name


def test_solve_chain_fig1():
    doc = load_chain_doc("fig1.chain.json")
    game = embed_chain_as_game(doc.chain, doc.priority_map(), doc.obligation_map())
    dep, report = find_best_dependency(game, witnesses=False)
    values = {doc.chain.names[i]: v for i, v in enumerate(report.values)}
    assert values["s2"] == ZERO
    assert values["s3"] == ONE
    assert report.pre_values[doc.chain.index("s3")] == HALF


def test_solve_chain_without_obligations_is_parity_measure():
    from obg import parity_measure
    doc = load_chain_doc("fig1.chain.json")
    game = embed_chain_as_game(doc.chain, doc.priority_map(), {})
    dep, report = find_best_dependency(game, witnesses=False)
    assert list(report.values) == parity_measure(doc.chain.succ, list(doc.priority))


def test_prefix_values_collapse_to_last_configuration():
    doc = load_chain_doc("fig1.chain.json")
    game = embed_chain_as_game(doc.chain, doc.priority_map(), doc.obligation_map())
    _, report = find_best_dependency(game, witnesses=False)
    assert value_of_prefix(report, ["s1", "s3"]) == ONE
    assert value_of_prefix(report, ["s1", "s2", "s4"]) == HALF
    with pytest.raises(InputFormatError):
        value_of_prefix(report, ["s1", "s4"])


# ---------------------------------------------------------------------------
# Randomized structural properties


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_obligation_values_are_two_valued_and_certified(seed):
    game = random_game(random.Random(seed))
    dep, report = find_best_dependency(game, witnesses=False)
    for v in game.obligation_indices():
        assert report.values[v] in (ZERO, ONE)
    assert verify_dependency(game, dep).good


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_determinacy_of_obligation_games(seed):
    game = random_game(random.Random(seed), force_players=True)
    _, primal = find_best_dependency(game, witnesses=False)
    _, counter = find_best_dependency(dual_game(game), witnesses=False)
    assert all(a + b == ONE for a, b in zip(primal.values, counter.values))


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_pre_value_thresholding_reproduces_the_verdicts(seed):
    # applying its own threshold to a configuration's pre-value must give
    # back the 0/1 value; for unmet obligations this exercises the
    # maximality of the met-set found by the search
    game = random_game(random.Random(seed))
    _, report = find_best_dependency(game, witnesses=False)
    for v in game.obligation_indices():
        ob = game.obligation[v]
        expected = ONE if ob.holds(report.pre_values[v]) else ZERO
        assert report.values[v] == expected


# ---------------------------------------------------------------------------
# Label-free rows and the reduced game, read off the settled game


def monitor_value(game, v, row):
    gamma, root = build_gamma_game(game, v, row)
    return solve_values(gamma)[root]


# products of random automata and chains need more than the default budgets
WIDE = Budgets(max_obligations=64, max_priority=9)


def equality_sample(seed, dual):
    rng = random.Random(seed)
    if seed % 3:
        game = random_game(rng, max_configs=8, max_obligations=4)
    else:
        game = build_product_game(random_automaton(rng, max_states=3),
                                  random_labeled_chain(rng, max_locations=4))[0]
    return (dual_game(game) if dual else game), rng


def entered_only_by_itself(game, v):
    return [u for u in range(len(game)) if v in game.succ[u]] == [v]


def gamma_cases(game, rng):
    """Check ``gamma_value`` against the solve of the monitor game, in one
    shared context and in a fresh one, on a label-free row, a random row
    and a row naming a pair that is never reached, for each obligation;
    return the cases met."""
    cases = set()
    context = SolveContext(game)
    obligations = game.obligation_indices()
    for v in obligations:
        reached = reachable_pairs(game, v)
        picked = {u for u, _ in reached if rng.random() < 0.5}
        free = {p for p in reached if p[0] in picked}
        rows = [free, {p for p in reached if rng.random() < 0.5}]
        stray = sorted((u, m) for u in obligations for m in range(game.max_priority() + 1)
                       if (u, m) not in reached)
        if stray:
            rows.append(free | {rng.choice(stray)})
            cases.add("unreachable pair")
        for row in rows:
            won = {u for u, _ in reached & row}
            label_free = all(p in row for p in reached if p[0] in won)
            cases.add("label-free" if label_free else "label-dependent")
            if label_free and v in won and entered_only_by_itself(game, v):
                cases.add("self-loop")
            answers = context.settled_answers
            assert gamma_value(game, v, row, context=context) == monitor_value(game, v, row)
            assert gamma_value(game, v, row) == monitor_value(game, v, row)
            # a row that depends on its labels goes through its monitor game
            assert context.settled_answers == answers + label_free
    return cases


def reduced_cases(game, dep):
    """Check ``values_given_dependency`` under `dep` against a solve of
    its reduced game, and each pre-value against its monitor game; return
    the cases met."""
    report = values_given_dependency(game, dep)
    met = dep.defined()
    assert report.reduced_solution == solve_parity(report.reduced_game)
    assert report.values == report.reduced_solution.values
    assert_lookups_add_up(game, report)
    entered = {t for succ in game.succ for t in succ}
    cases = set()
    for v in game.obligation_indices():
        row = dep.get(v)
        if row is None:
            row = pair_universe(game, v, met)
        assert report.pre_values[v] == monitor_value(game, v, row)
        if v in met and v not in entered:
            cases.add("no incoming edge")
    return cases


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_gamma_value_equals_the_monitor_game_solve(seed, dual):
    game, rng = equality_sample(seed, dual)
    gamma_cases(game, rng)


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_values_given_dependency_equals_the_reduced_game_solve(seed, dual):
    game, _ = equality_sample(seed, dual)
    dep, report = find_best_dependency(game, budgets=WIDE)
    assert_lookups_add_up(game, report)
    reduced_cases(game, dep)
    reduced_cases(game, Dependency.from_mapping(game, {}))


def test_the_equality_samples_cover_every_case():
    cases = set()
    for seed in range(60):
        for dual in (False, True):
            game, rng = equality_sample(seed, dual)
            cases |= gamma_cases(game, rng)
            cases |= reduced_cases(game, find_best_dependency(game, budgets=WIDE)[0])
    assert cases == {"label-free", "label-dependent", "unreachable pair", "self-loop",
                     "no incoming edge"}


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_reachable_pairs_are_the_monitor_products_frozen_pairs(seed, dual):
    game, _ = equality_sample(seed, dual)
    for v in range(len(game)):
        # a frozen node is won when every pair is chosen and lost when none is
        won, _ = build_gamma_game(game, v, reachable_pairs(game, v))
        lost, _ = build_gamma_game(game, v, ())
        frozen = {won.names[node] for node in range(len(won))
                  if won.priority[node] != lost.priority[node]}
        assert frozen == {f"{game.names[u]}!{m}" for u, m in reachable_pairs(game, v)}
        assert all(won.kernel[node] == ((node, ONE),) for node in range(len(won))
                   if won.names[node] in frozen)


# ---------------------------------------------------------------------------
# Games on which the two-player solve used to stall: the value-switch climb
# started from an incomplete almost-sure region and left a gap that only
# enumerating strategies could close.  Now the climbs close them without a
# class step.


def nth_large_random_game(seed, k):
    rng = random.Random(seed)
    for _ in range(k):
        game = random_game(rng, max_configs=160, max_obligations=4, max_priority=3)
    return game


def reordered(game, order):
    """The same game with its configurations listed in `order`."""
    position = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        if game.owners[v] is Owner.PROBABILISTIC:
            moves = [(position[u], p) for u, p in game.kernel[v]]
        else:
            moves = [position[u] for u in game.succ[v]]
        rows.append((game.names[v], game.owners[v], game.priority[v], game.obligation[v], moves))
    return game_from_rows(rows)


@pytest.fixture
def no_class_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("the two-player solve took a class step")
    monkeypatch.setattr(parity_mod, "_class_step", refuse)


def test_stalling_game_solves_in_every_configuration_order(no_class_step):
    game = nth_large_random_game(8, 14)
    _, primal = find_best_dependency(game, witnesses=False)
    _, counter = find_best_dependency(dual_game(game), witnesses=False)
    assert all(a + b == ONE for a, b in zip(primal.values, counter.values))
    by_name = dict(zip(game.names, primal.values))
    rng = random.Random(0)
    for _ in range(4):
        order = list(range(len(game)))
        rng.shuffle(order)
        shuffled = reordered(game, order)
        _, report = find_best_dependency(shuffled, witnesses=False)
        assert dict(zip(shuffled.names, report.values)) == by_name


def test_slow_enumeration_game_decides_without_enumerating(no_class_step):
    game = nth_large_random_game(11, 64)
    assert decide_value(game, 0, ">=", ZERO).verdict
