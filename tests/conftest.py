from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import settings

from obg import (DEFAULT_BUDGETS, Budgets, LabeledMarkovChain, ObligationGame,
                 Owner, PAutomaton, build_automaton_graph, build_product_game,
                 closure, find_best_dependency, format_rational, io_formats)
from obg.graphs import condensation_topo_order
from obg.model import ONE, ZERO, ConfigRow, game_from_rows
from obg.pautomata import And, Formula, Or, StateAtom, Term, format_formula

settings.register_profile("default", deadline=None)
settings.load_profile("default")

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_chain_doc(name: str) -> io_formats.ChainDocument:
    return io_formats.parse_chain_document(fixture_text(name))


def load_game(name: str):
    return io_formats.parse_game_document(fixture_text(name)).game


def load_automaton(name: str):
    return io_formats.parse_automaton_document(fixture_text(name))


@pytest.fixture(scope="session")
def fig6():
    return load_game("fig6.game.json")


@pytest.fixture(scope="session")
def fig5():
    return load_game("fig5.game.json")


# ---------------------------------------------------------------------------
# The layered p-automaton solve: the reference that ``accepts`` is checked
# against.


def accepts_layered(aut: PAutomaton, mc: LabeledMarkovChain, *,
                    budgets: Budgets = DEFAULT_BUDGETS
                    ) -> tuple[bool, dict[int, Fraction]]:
    """Solve the product one automaton class at a time, bottom-up.

    Exits into already-solved classes are replaced by win/lose lotteries
    weighted with the solved value, which is exact because a play
    descending into a lower class never returns and its continuation
    value is precisely the reduced-game value there.  Returns the
    verdict and the value of every product configuration.
    """
    product, root = build_product_game(aut, mc)

    # Classes of the automaton graph, extended with the initial condition's
    # decomposition (which can sit outside the transition closure).
    graph = build_automaton_graph(aut)
    nodes = set(graph.nodes) | closure(aut.initial)
    edges: set[tuple[Formula, Formula]] = set(graph.all_edges())
    for f in closure(aut.initial):
        if isinstance(f, (And, Or)):
            for child in (f.left, f.right):
                edges.add((f, child))
        elif isinstance(f, Term):
            edges.add((f, StateAtom(f.state)))
    ordered = sorted(nodes, key=format_formula)
    index = {f: i for i, f in enumerate(ordered)}
    adj: list[list[int]] = [[] for _ in ordered]
    for a, b in sorted((index[a], index[b]) for a, b in edges):
        adj[a].append(b)
    comps, comp_of = condensation_topo_order(len(ordered), lambda v: adj[v])

    # A product configuration is named "location|formula".
    formula_of = {f"{location}|{format_formula(f)}": f for location in mc.names for f in nodes}
    class_of_config = {v: comp_of[index[formula_of[name]]]
                       for v, name in enumerate(product.names)}
    values: dict[int, Fraction] = {}
    for ci in range(len(comps) - 1, -1, -1):
        members = sorted(v for v, c in class_of_config.items() if c == ci)
        if members:
            values.update(solve_class(product, members, values, budgets))
    return values[root] == ONE, values


def solve_class(product: ObligationGame, members: list[int],
                solved: Mapping[int, Fraction], budgets: Budgets
                ) -> dict[int, Fraction]:
    """Solve the subgame induced by one class with weighted exit sinks.

    The class's members keep their order and are followed by WIN, LOSE
    and one exit lottery per distinct value strictly between 0 and 1.
    """
    inside = {v: i for i, v in enumerate(members)}
    win, lose = len(members), len(members) + 1
    lotteries: dict[Fraction, int] = {}

    def exit_to(value: Fraction) -> int:
        # An owned exit to a solved configuration becomes a lottery node.
        if value == ONE:
            return win
        if value == ZERO:
            return lose
        return lotteries.setdefault(value, len(members) + 2 + len(lotteries))

    rows: list[ConfigRow] = []
    for v in members:
        if product.owners[v] is Owner.PROBABILISTIC:
            moves: list = []
            for t, p in product.kernel_row(v):
                if t in inside:
                    moves.append((inside[t], p))
                else:
                    moves += [(win, p * solved[t]), (lose, p * (ONE - solved[t]))]
        else:
            moves = [inside[t] if t in inside else exit_to(solved[t]) for t in product.succ[v]]
        rows.append((product.names[v], product.owners[v], product.priority[v],
                     product.obligation[v], moves))
    rows.append(("WIN", Owner.PROBABILISTIC, 0, None, [(win, ONE)]))
    rows.append(("LOSE", Owner.PROBABILISTIC, 1, None, [(lose, ONE)]))
    rows += [(f"exit~{format_rational(value)}", Owner.PROBABILISTIC, 1, None,
              [(win, value), (lose, ONE - value)]) for value in lotteries]
    _, report = find_best_dependency(game_from_rows(rows), budgets=budgets, witnesses=False)
    return {v: report.values[inside[v]] for v in members}
