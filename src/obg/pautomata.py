"""p-automata: positive Boolean transitions over states and
probability-bounded terms, read against finite Markov chains.

Acceptance is decided through a product obligation game: disjunctions
become Player-0 configurations, conjunctions Player-1 configurations,
state and term configurations are probabilistic and move with the
chain's kernel; a term configuration carries the term's bound as its
obligation.  The chain is accepted iff the product value at the pair
(initial condition, initial location) is one.

``tt``/``ff`` in transitions become absorbing configurations of even /
odd priority; all configurations that are not state or term pairs take
the automaton's maximal priority, which never matters because formula
decomposition is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import InputFormatError
from .graphs import condensation_topo_order
from .model import (ONE, ConfigRow, LabeledMarkovChain, Obligation,
                    ObligationGame, Owner, explore_game, format_rational,
                    is_probability)
from .obligations import ObligationValueReport, find_best_dependency

# --------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Tt:
    pass


@dataclass(frozen=True)
class Ff:
    pass


@dataclass(frozen=True)
class StateAtom:
    state: str


@dataclass(frozen=True)
class Term:
    """A probability-bounded term: the state's path set has measure cmp bound."""
    state: str
    cmp: str
    bound: Fraction

    def obligation(self) -> Obligation:
        return Obligation(self.cmp, self.bound)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Tt, Ff, StateAtom, Term, And, Or]

TT = Tt()
FF = Ff()


def format_formula(f: Formula) -> str:
    if isinstance(f, Tt):
        return "tt"
    if isinstance(f, Ff):
        return "ff"
    if isinstance(f, StateAtom):
        return f.state
    if isinstance(f, Term):
        symbol = "≥" if f.cmp == ">=" else ">"
        return f"[{f.state}{symbol}{format_rational(f.bound)}]"
    op = "&" if isinstance(f, And) else "|"
    return f"({format_formula(f.left)}{op}{format_formula(f.right)})"


def closure(formula: Formula) -> frozenset[Formula]:
    """All subformulas of a formula, including itself; idempotent."""
    out: set[Formula] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        if isinstance(f, (And, Or)):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


def closure_of_set(formulas: Iterable[Formula]) -> frozenset[Formula]:
    out: frozenset[Formula] = frozenset()
    for f in formulas:
        out |= closure(f)
    return out


# --------------------------------------------------------------------------
# Automata


@dataclass
class PAutomaton:
    """Alphabet = subsets of ``propositions``; ``cases`` holds the sparse
    transition table and ``default`` the per-state fallback (ff unless
    declared otherwise in the input file).  Treated as immutable.
    """

    propositions: tuple[str, ...]
    states: tuple[str, ...]
    priority: Mapping[str, int]
    cases: Mapping[str, Mapping[frozenset[str], Formula]]
    default: Mapping[str, Formula]
    initial: Formula

    def transition(self, state: str, letter: frozenset[str]) -> Formula:
        return self.cases.get(state, {}).get(letter, self.default[state])

    def letters(self) -> list[frozenset[str]]:
        props = self.propositions
        out = []
        for mask in range(1 << len(props)):
            out.append(frozenset(p for i, p in enumerate(props) if mask >> i & 1))
        return out

    def max_priority(self) -> int:
        return max(self.priority.values())


def validate_automaton(aut: PAutomaton) -> list[str]:
    problems = []
    if not aut.states:
        problems.append("automaton needs at least one state")
    if len(aut.propositions) > 12:
        problems.append("more than 12 atomic propositions; the alphabet would be huge")
    # a letter's key joins its sorted propositions with "," (io_formats)
    for p in sorted(set(aut.propositions)):
        if aut.propositions.count(p) > 1:
            problems.append(f"proposition {p!r} is listed twice")
        if p == "" or "," in p:
            problems.append(f"proposition {p!r} is empty or contains ','; "
                            "no letter key could name it")
    known = set(aut.states)
    for q in aut.states:
        if q not in aut.priority:
            problems.append(f"state {q} has no priority")
        elif aut.priority[q] < 0:
            problems.append(f"state {q} has negative priority {aut.priority[q]}")
        if q not in aut.default:
            problems.append(f"state {q} has no default transition")
    for q, table in aut.cases.items():
        if q not in known:
            problems.append(f"transition table mentions unknown state {q}")
        for letter, formula in table.items():
            if not letter <= set(aut.propositions):
                problems.append(f"transition of {q} keyed by unknown propositions {sorted(letter)}")
            problems.extend(_check_formula(formula, known))
    problems.extend(_check_formula(aut.initial, known))
    for f in closure(aut.initial):
        if isinstance(f, StateAtom):
            problems.append("initial condition must not contain bare state atoms")
            break
    return problems


def _check_formula(formula: Formula, states: set[str]) -> list[str]:
    problems = []
    for f in closure(formula):
        if isinstance(f, (StateAtom, Term)) and f.state not in states:
            problems.append(f"formula mentions unknown state {f.state}")
        if isinstance(f, Term) and not is_probability(f.bound):
            problems.append(f"term bound {format_rational(f.bound)} outside [0,1]")
    return problems


# --------------------------------------------------------------------------
# The automaton graph and uniformity


@dataclass(frozen=True)
class AutomatonGraph:
    """Directed graph on states and transition subformulas.

    ``simple`` edges are formula decompositions to non-state children
    plus the transition edges; ``bounded`` edges go from a term to its
    state, ``unbounded`` from a conjunction/disjunction directly to a
    state child.  The three sets are pairwise disjoint.
    """

    nodes: tuple[Formula, ...]
    simple: frozenset[tuple[Formula, Formula]]
    bounded: frozenset[tuple[Formula, Formula]]
    unbounded: frozenset[tuple[Formula, Formula]]

    def all_edges(self) -> frozenset[tuple[Formula, Formula]]:
        return self.simple | self.bounded | self.unbounded


def build_automaton_graph(aut: PAutomaton) -> AutomatonGraph:
    letters = aut.letters()
    transition_targets = [aut.transition(q, letter) for q in aut.states for letter in letters]
    nodes: set[Formula] = {StateAtom(q) for q in aut.states}
    nodes |= closure_of_set(transition_targets)
    simple: set[tuple[Formula, Formula]] = set()
    bounded: set[tuple[Formula, Formula]] = set()
    unbounded: set[tuple[Formula, Formula]] = set()
    for q in aut.states:
        for letter in letters:
            simple.add((StateAtom(q), aut.transition(q, letter)))
    for f in nodes:
        if isinstance(f, (And, Or)):
            for child in (f.left, f.right):
                if isinstance(child, StateAtom):
                    unbounded.add((f, child))
                else:
                    simple.add((f, child))
        elif isinstance(f, Term):
            bounded.add((f, StateAtom(f.state)))
    ordered = tuple(sorted(nodes, key=format_formula))
    return AutomatonGraph(nodes=ordered, simple=frozenset(simple),
                          bounded=frozenset(bounded), unbounded=frozenset(unbounded))


def is_uniform(aut: PAutomaton) -> tuple[bool, Optional[tuple[Formula, ...]]]:
    """Every cycle uses only bounded or only unbounded non-simple edges.

    Equivalently no strongly connected component of the automaton graph
    contains both kinds; the witness on failure is such a component.
    """
    graph = build_automaton_graph(aut)
    index = {f: i for i, f in enumerate(graph.nodes)}
    adj: list[list[int]] = [[] for _ in graph.nodes]
    for a, b in sorted((index[a], index[b]) for a, b in graph.all_edges()):
        adj[a].append(b)
    comps, comp_of = condensation_topo_order(len(graph.nodes), lambda v: adj[v])
    bounded_in = set()
    unbounded_in = set()
    for a, b in graph.bounded:
        if comp_of[index[a]] == comp_of[index[b]]:
            bounded_in.add(comp_of[index[a]])
    for a, b in graph.unbounded:
        if comp_of[index[a]] == comp_of[index[b]]:
            unbounded_in.add(comp_of[index[a]])
    mixed = sorted(bounded_in & unbounded_in)
    if not mixed:
        return True, None
    witness = tuple(graph.nodes[v] for v in sorted(comps[mixed[0]]))
    return False, witness


# --------------------------------------------------------------------------
# Product game and acceptance


def build_product_game(aut: PAutomaton, mc: LabeledMarkovChain
                       ) -> tuple[ObligationGame, int]:
    """The obligation game deciding acceptance of ``mc`` by ``aut``.

    Configurations are (location, formula) pairs reachable from the
    initial pair, named ``location|formula``.  Returns the game and the
    index of the initial pair, which is 0: configurations are numbered
    in discovery order (:func:`model.explore_game`), a disjunction or
    conjunction discovers its left operand before its right, and a
    state or term pair discovers its successors in the order of the
    chain's sorted row.
    """
    problems = validate_automaton(aut)
    if problems:
        raise InputFormatError("; ".join(problems))
    ap = frozenset(aut.propositions)
    filler = aut.max_priority()

    def expand(key: tuple[int, Formula]) -> ConfigRow:
        loc, formula = key
        name = f"{mc.names[loc]}|{format_formula(formula)}"
        if isinstance(formula, (And, Or)):
            owner = Owner.PLAYER0 if isinstance(formula, Or) else Owner.PLAYER1
            return name, owner, filler, None, [(loc, formula.left), (loc, formula.right)]
        if isinstance(formula, (Tt, Ff)):
            priority = 0 if isinstance(formula, Tt) else 1
            return name, Owner.PROBABILISTIC, priority, None, [(key, ONE)]
        # StateAtom or Term: move with the chain
        next_formula = aut.transition(formula.state, mc.labels[loc] & ap)
        obligation = formula.obligation() if isinstance(formula, Term) else None
        return (name, Owner.PROBABILISTIC, aut.priority[formula.state], obligation,
                [((t, next_formula), p) for t, p in mc.succ[loc]])

    game, _ = explore_game((mc.initial, aut.initial), expand)
    return game, 0


@dataclass(frozen=True)
class AcceptanceResult:
    accepted: bool
    root: int
    product: ObligationGame
    report: ObligationValueReport


def accepts(aut: PAutomaton, mc: LabeledMarkovChain, *,
            budgets: Budgets = DEFAULT_BUDGETS,
            witnesses: bool = False) -> AcceptanceResult:
    """Acceptance via the product obligation game: ``mc`` is accepted
    iff the initial pair's value is one."""
    product, root = build_product_game(aut, mc)
    _, report = find_best_dependency(product, budgets=budgets, witnesses=witnesses)
    return AcceptanceResult(accepted=report.values[root] == ONE, root=root,
                            product=product, report=report)
