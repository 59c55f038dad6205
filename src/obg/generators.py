"""Seeded random instances for property suites and self-tests.

Probabilistic branching uses two-way splits drawn from
{1/4+3/4, 1/3+2/3, 1/2+1/2} (or a single certain edge), so kernel rows
stay within the small rational grid the property suites expect.
Everything is a pure function of the supplied ``random.Random``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .model import (ONE, LabeledMarkovChain, Obligation, ObligationGame,
                    Owner, make_chain, make_game)
from .pautomata import FF, TT, And, Formula, Or, PAutomaton, StateAtom, Term

SPLITS = [
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(1, 3)),
    (Fraction(3, 4), Fraction(1, 4)),
]

THRESHOLDS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
              Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def random_game(rng: random.Random, *, max_configs: int = 6,
                max_obligations: int = 3, max_priority: int = 3,
                force_players: bool = False) -> ObligationGame:
    n = rng.randint(2, max_configs)
    names = [f"v{i}" for i in range(n)]
    owners = []
    for i in range(n):
        owners.append(rng.choice([Owner.PLAYER0, Owner.PLAYER1, Owner.PROBABILISTIC]))
    if force_players and all(o is Owner.PROBABILISTIC for o in owners):
        owners[rng.randrange(n)] = rng.choice([Owner.PLAYER0, Owner.PLAYER1])
    configs = []
    edges = []
    kernel = {}
    n_obl = rng.randint(0, min(max_obligations, n))
    obligated = set(rng.sample(range(n), n_obl))
    for i in range(n):
        ob: Optional[Obligation] = None
        if i in obligated:
            ob = Obligation(rng.choice([">=", ">"]), rng.choice(THRESHOLDS))
        configs.append((names[i], owners[i], rng.randint(0, max_priority), ob))
        targets = rng.sample(range(n), rng.randint(1, 2))
        if owners[i] is Owner.PROBABILISTIC:
            if len(targets) == 1:
                kernel[names[i]] = {names[targets[0]]: ONE}
            else:
                split = rng.choice(SPLITS)
                kernel[names[i]] = {names[targets[0]]: split[0],
                                    names[targets[1]]: split[1]}
        for t in targets:
            edges.append((names[i], names[t]))
    return make_game(configs, edges, kernel)


def random_parity_game(rng: random.Random, *, max_configs: int = 6,
                       max_priority: int = 3) -> ObligationGame:
    return random_game(rng, max_configs=max_configs, max_obligations=0,
                       max_priority=max_priority)


TERM_BOUNDS = [Fraction(1, 3), Fraction(1, 2)]


def random_formula(rng: random.Random, states: list[str], depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.4:
        kind = rng.randrange(4)
        if kind == 0:
            return TT
        if kind == 1:
            return FF
        if kind == 2:
            return StateAtom(rng.choice(states))
        return Term(rng.choice(states), rng.choice([">=", ">"]),
                    rng.choice(TERM_BOUNDS))
    left = random_formula(rng, states, depth - 1)
    right = random_formula(rng, states, depth - 1)
    return And(left, right) if rng.random() < 0.5 else Or(left, right)


def random_automaton(rng: random.Random, *, max_states: int = 2,
                     max_priority: int = 2) -> PAutomaton:
    propositions = ("a",)
    states = [f"q{i}" for i in range(rng.randint(1, max_states))]
    priority = {q: rng.randint(0, max_priority) for q in states}
    letters = [frozenset(), frozenset({"a"})]
    cases = {q: {letter: random_formula(rng, states) for letter in letters}
             for q in states}
    initial = Term(rng.choice(states), rng.choice([">=", ">"]),
                   rng.choice(TERM_BOUNDS))
    return PAutomaton(propositions=propositions, states=tuple(states),
                      priority=priority, cases=cases,
                      default={q: FF for q in states}, initial=initial)


def random_labeled_chain(rng: random.Random, *,
                         max_locations: int = 4) -> LabeledMarkovChain:
    chain, _ = random_chain(rng, max_locations=max_locations)
    return replace(chain, labels=tuple(frozenset({"a"} if rng.random() < 0.5 else ())
                                       for _ in chain.names))


def random_chain(rng: random.Random, *, max_locations: int = 6,
                 max_priority: int = 3) -> tuple[LabeledMarkovChain, list[int]]:
    n = rng.randint(2, max_locations)
    names = [f"s{i}" for i in range(n)]
    transitions = {}
    for i in range(n):
        targets = rng.sample(range(n), rng.randint(1, 2))
        if len(targets) == 1:
            transitions[names[i]] = {names[targets[0]]: ONE}
        else:
            split = rng.choice(SPLITS)
            transitions[names[i]] = {names[targets[0]]: split[0],
                                     names[targets[1]]: split[1]}
    chain = make_chain(names, transitions, initial=names[0])
    priority = [rng.randint(0, max_priority) for _ in range(n)]
    return chain, priority
