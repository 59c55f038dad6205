"""Core domain types: chains, games, objectives and strategies.

Configurations are referenced by stable string identifiers in files and
by dense integer indices internally; every structure carries the
``names`` tuple that defines the mapping.  All types are immutable
after construction, hashable, and safe to share between threads; no
operation in this package mutates its inputs.

Probabilities and thresholds are exact rationals (``fractions.Fraction``).
Floating point is forbidden in solver paths: strict-versus-non-strict
threshold comparisons have to be decided exactly.

Parity convention: a play is winning for Player 0 iff the minimal
priority occurring infinitely often (liminf) is even.  Dualization adds
one to every priority instead of storing a "complemented" flag, so a
single objective representation serves both players.

Derived games are assembled by :func:`game_from_rows`, on its own or
through :func:`explore_game` (the p-automaton product and the gamma
games, which are explored with their frozen pairs already won or lost),
where a probabilistic row's support becomes its successors, so edges and
kernels agree by construction; or they settle configurations of an
existing game as won or lost (:func:`settle`: settled, reduced and
value-class games).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import (Callable, Hashable, Iterable, Mapping, Optional, Sequence,
                    TypeVar)

from .errors import InputFormatError, InternalInvariantError

ZERO = Fraction(0)
ONE = Fraction(1)

GE = ">="
GT = ">"


class Owner(Enum):
    PLAYER0 = "player0"
    PLAYER1 = "player1"
    PROBABILISTIC = "probabilistic"


# The owner of each configuration in the dual game (players swapped).
OPPONENT = {Owner.PLAYER0: Owner.PLAYER1,
            Owner.PLAYER1: Owner.PLAYER0,
            Owner.PROBABILISTIC: Owner.PROBABILISTIC}


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its string form ``a/b`` or ``a``.

    Only strings are accepted; bare JSON numbers are rejected upstream
    to prevent silent float ingestion.  The string must be an optional
    sign and ASCII digits, with an optional ``/`` and digits: decimal
    and exponent forms, which ``Fraction`` would also take, can ask for
    numbers too large to parse or print in reasonable time.
    """
    if not isinstance(text, str):
        raise InputFormatError(f"rational must be a string like '1/2', got {text!r}")
    if not _RATIONAL.fullmatch(text):
        raise InputFormatError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``a/b`` with b > 0 and gcd(|a|, b) = 1.

    The integers are printed through ``Decimal``, which is exact and,
    unlike ``str(int)``, has no digit limit: exact values of inputs whose
    numbers are within the parser's limit can run past it.
    """
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def is_probability(value: Fraction) -> bool:
    return ZERO <= value <= ONE


@dataclass(frozen=True)
class Obligation:
    """A threshold annotation ``(cmp, threshold)`` on a configuration.

    Player 0 derives value from an annotated configuration only by
    achieving measure ``cmp threshold`` of the goal from there; the
    configuration's own value is then 1, otherwise 0.
    """

    cmp: str  # ">=" or ">"
    threshold: Fraction

    def __post_init__(self) -> None:
        if self.cmp not in (GE, GT):
            raise InputFormatError(f"obligation comparator must be '>=' or '>', got {self.cmp!r}")
        if not is_probability(self.threshold):
            raise InputFormatError(
                f"obligation threshold must lie in [0,1], got {format_rational(self.threshold)}")

    def holds(self, value: Fraction) -> bool:
        return value >= self.threshold if self.cmp == GE else value > self.threshold

    def dual(self) -> "Obligation":
        # >= r flips to > 1-r, > r flips to >= 1-r.
        if self.cmp == GE:
            return Obligation(GT, ONE - self.threshold)
        return Obligation(GE, ONE - self.threshold)

    def pretty(self) -> str:
        symbol = "≥" if self.cmp == GE else ">"
        return f"{symbol}{format_rational(self.threshold)}"


@dataclass(frozen=True)
class LabeledMarkovChain:
    """Finite labeled Markov chain with exact transition probabilities.

    ``succ[i]`` lists ``(target, probability)`` pairs sorted by target;
    every listed probability is strictly positive and each row sums to
    one (checked by :func:`validate_chain`).
    """

    names: tuple[str, ...]
    succ: tuple[tuple[tuple[int, Fraction], ...], ...]
    labels: tuple[frozenset[str], ...]
    initial: int

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputFormatError(f"unknown location {name!r}") from None


@dataclass(frozen=True)
class ObligationGame:
    """Turn-based stochastic game with priorities and obligations.

    ``owners`` partitions the configurations; ``kernel[i]`` is the
    probability row of configuration ``i`` and is present exactly for
    probabilistic configurations, with positive mass exactly on the
    listed edges.  ``obligation[i]`` is ``None`` for configurations
    without an obligation.
    """

    names: tuple[str, ...]
    owners: tuple[Owner, ...]
    succ: tuple[tuple[int, ...], ...]
    kernel: tuple[Optional[tuple[tuple[int, Fraction], ...]], ...]
    priority: tuple[int, ...]
    obligation: tuple[Optional[Obligation], ...]

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputFormatError(f"unknown configuration {name!r}") from None

    def obligation_indices(self) -> tuple[int, ...]:
        return tuple(i for i, o in enumerate(self.obligation) if o is not None)

    def max_priority(self) -> int:
        return max(self.priority) if self.priority else 0

    def is_chain(self) -> bool:
        return all(o is Owner.PROBABILISTIC for o in self.owners)

    def kernel_row(self, i: int) -> tuple[tuple[int, Fraction], ...]:
        row = self.kernel[i]
        if row is None:
            raise InternalInvariantError(f"configuration {self.names[i]} has no kernel row")
        return row


@dataclass(frozen=True)
class PureMemorylessStrategy:
    """A pure memoryless strategy: one fixed successor per owned configuration."""

    player: int  # 0 or 1
    choices: tuple[tuple[int, int], ...]  # sorted (configuration, successor) pairs

    @staticmethod
    def from_dict(player: int, mapping: Mapping[int, int]) -> "PureMemorylessStrategy":
        return PureMemorylessStrategy(player, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.choices)


# ---------------------------------------------------------------------------
# Builders

# One configuration of a derived game: name, owner, priority, obligation
# and moves.  The moves of an owned configuration are its successors, those
# of a probabilistic one (successor, probability) pairs.
ConfigRow = tuple[str, Owner, int, Optional[Obligation], Iterable]
K = TypeVar("K", bound=Hashable)


def game_from_rows(rows: Sequence[ConfigRow]) -> ObligationGame:
    """Assemble a game from per-configuration rows, in row order.

    Successors are sorted and deduplicated.  A probabilistic row's
    probabilities are summed per target, zero ones skipped, and the
    targets left become its successors.  Edges and kernel therefore agree
    by construction: a derived game passes :func:`validate` as long as
    every row has a move, every priority is non-negative and each
    probabilistic row's non-negative probabilities sum to one.
    """
    succ: list[tuple[int, ...]] = []
    kernel: list[Optional[tuple[tuple[int, Fraction], ...]]] = []
    for _, owner, _, _, moves in rows:
        if owner is Owner.PROBABILISTIC:
            mass: dict[int, Fraction] = {}
            for t, p in moves:
                if t in mass:
                    mass[t] += p
                elif p:
                    mass[t] = p
            row = tuple(sorted(mass.items()))
            succ.append(tuple(t for t, _ in row))
            kernel.append(row)
        else:
            succ.append(tuple(sorted(set(moves))))
            kernel.append(None)
    names, owners, priority, obligation, _ = zip(*rows)
    return ObligationGame(names=names, owners=owners, succ=tuple(succ), kernel=tuple(kernel),
                          priority=priority, obligation=obligation)


def explore_game(root: K, expand: Callable[[K], ConfigRow]) -> tuple[ObligationGame, list[K]]:
    """The game on the keys reachable from ``root``.

    ``expand(key)`` gives the key's row, its moves naming successor keys.
    Keys are numbered in discovery order: the root is 0, and every other
    key gets the next index when a move first names it.  The last
    discovered key is expanded first.  Returns the game and its keys in
    index order.
    """
    keys = [root]
    index = {root: 0}
    rows: list[Optional[ConfigRow]] = [None]
    pending = [0]

    def number(key: K) -> int:
        node = index.get(key)
        if node is None:
            node = index[key] = len(keys)
            keys.append(key)
            rows.append(None)
            pending.append(node)
        return node

    while pending:
        node = pending.pop()
        name, owner, priority, obligation, moves = expand(keys[node])
        if owner is Owner.PROBABILISTIC:
            moves = [(number(t), p) for t, p in moves]
        else:
            moves = [number(t) for t in moves]
        rows[node] = (name, owner, priority, obligation, moves)
    return game_from_rows(rows), keys


def make_game(configs: Sequence[tuple[str, Owner, int, Optional[Obligation]]],
              edges: Iterable[tuple[str, str]],
              kernel: Mapping[str, Mapping[str, Fraction]]) -> ObligationGame:
    """Assemble a game from name-based parts; successor lists are sorted.

    Edges and kernel rows are kept as given, so a mismatch between them
    is left for :func:`validate` to report.
    """
    names = tuple(c[0] for c in configs)
    if len(set(names)) != len(names):
        raise InputFormatError("duplicate configuration names")
    idx = {n: i for i, n in enumerate(names)}
    succ_sets: list[set[int]] = [set() for _ in names]
    for a, b in edges:
        succ_sets[idx[a]].add(idx[b])
    kernel_rows: list[Optional[tuple[tuple[int, Fraction], ...]]] = [None] * len(names)
    for a, row in kernel.items():
        kernel_rows[idx[a]] = tuple(sorted((idx[b], p) for b, p in row.items()))
    return ObligationGame(
        names=names,
        owners=tuple(c[1] for c in configs),
        succ=tuple(tuple(sorted(s)) for s in succ_sets),
        kernel=tuple(kernel_rows),
        priority=tuple(c[2] for c in configs),
        obligation=tuple(c[3] for c in configs),
    )


def make_chain(names: Sequence[str],
               transitions: Mapping[str, Mapping[str, Fraction]],
               labels: Optional[Mapping[str, Iterable[str]]] = None,
               initial: Optional[str] = None) -> LabeledMarkovChain:
    names = tuple(names)
    idx = {n: i for i, n in enumerate(names)}
    rows = []
    for n in names:
        row = transitions.get(n, {})
        rows.append(tuple(sorted((idx[m], p) for m, p in row.items())))
    label_rows = tuple(frozenset(labels.get(n, ())) if labels else frozenset() for n in names)
    start = idx[initial] if initial is not None else 0
    return LabeledMarkovChain(names=names, succ=tuple(rows), labels=label_rows, initial=start)


# ---------------------------------------------------------------------------
# Validation


def validate_chain(mc: LabeledMarkovChain) -> list[str]:
    """All chain invariant violations, empty list iff the chain is valid."""
    problems = []
    n = len(mc)
    if not (0 <= mc.initial < n):
        problems.append(f"initial location index {mc.initial} out of range")
    for i, row in enumerate(mc.succ):
        name = mc.names[i]
        if not row:
            problems.append(f"location {name} has no successor")
            continue
        total = ZERO
        for t, p in row:
            if not (0 <= t < n):
                problems.append(f"location {name} has successor index {t} out of range")
            if p <= ZERO:
                problems.append(f"location {name} lists successor "
                                f"{mc.names[t] if 0 <= t < n else t} "
                                f"with non-positive probability {format_rational(p)}")
            total += p
        if total != ONE:
            problems.append(f"transition row of {name} sums to {format_rational(total)}, expected 1")
    return problems


def validate(game: ObligationGame) -> list[str]:
    """All game invariant violations with the offending configuration.

    Checked: every configuration has an outgoing edge; kernel rows exist
    exactly for probabilistic configurations, carry positive mass exactly
    on the edges, and sum to one; priorities are non-negative; obligation
    thresholds lie in [0, 1].  An empty list means the game is valid.
    """
    problems = []
    n = len(game)
    if len(set(game.names)) != n:
        problems.append("configuration names are not unique")
    for i in range(n):
        name = game.names[i]
        succ = game.succ[i]
        if not succ:
            problems.append(f"configuration {name} has no outgoing edge")
        for t in succ:
            if not (0 <= t < n):
                problems.append(f"configuration {name} has edge target {t} out of range")
        if game.priority[i] < 0:
            problems.append(f"configuration {name} has negative priority {game.priority[i]}")
        row = game.kernel[i]
        if game.owners[i] is Owner.PROBABILISTIC:
            if row is None:
                problems.append(f"probabilistic configuration {name} has no kernel row")
            else:
                row_targets = tuple(t for t, _ in row)
                if row_targets != succ:
                    problems.append(f"kernel support of {name} does not match its edges")
                total = ZERO
                for t, p in row:
                    if p <= ZERO:
                        problems.append(f"kernel of {name} gives non-positive probability to "
                                        f"{game.names[t] if 0 <= t < n else t}")
                    total += p
                if total != ONE:
                    problems.append(f"kernel row of {name} sums to {format_rational(total)}, expected 1")
        elif row is not None:
            problems.append(f"owned configuration {name} must not carry a kernel row")
        ob = game.obligation[i]
        if ob is not None and not is_probability(ob.threshold):
            problems.append(f"obligation threshold of {name} outside [0,1]")
    return problems


# ---------------------------------------------------------------------------
# Constructions


def dual_game(game: ObligationGame) -> ObligationGame:
    """Swap the players and complement the objective.

    Priorities are shifted by one, which complements the parity
    objective; obligations flip strictness around 1 - r; edges and the
    probabilistic kernel are unchanged.  Applying the construction twice
    yields a game with identical ownership and obligations whose set of
    winning plays coincides with the original's.
    """
    return replace(
        game,
        owners=tuple(OPPONENT[o] for o in game.owners),
        priority=tuple(p + 1 for p in game.priority),
        obligation=tuple(o.dual() if o is not None else None for o in game.obligation),
    )


def require_int(raw: object, where: str) -> int:
    """An integer proper: booleans, floats, strings and the rest are
    rejected, not coerced."""
    if type(raw) is not int:
        raise InputFormatError(f"{where} must be an integer, got {raw!r}")
    return raw


def embed_chain_as_game(mc: LabeledMarkovChain, priority: Sequence[int],
                        obligations: Optional[Sequence[Optional[Obligation]]] = None
                        ) -> ObligationGame:
    """View a Markov chain as a game in which every configuration is
    probabilistic.  ``priority`` and ``obligations`` are indexed by
    location, as a chain document holds them; priorities must be
    non-negative integers, and ``None`` obligations mean none at all."""
    n = len(mc)
    obl = (None,) * n if obligations is None else tuple(obligations)
    if len(priority) != n or len(obl) != n:
        raise InputFormatError("priority or obligation sequence length does not match the chain")
    prio = tuple(require_int(p, f"priority of {name}") for name, p in zip(mc.names, priority))
    for name, p in zip(mc.names, prio):
        if p < 0:
            raise InputFormatError(f"location {name} has negative priority {p}")
    return ObligationGame(
        names=mc.names,
        owners=tuple(Owner.PROBABILISTIC for _ in range(n)),
        succ=tuple(tuple(t for t, _ in row) for row in mc.succ),
        kernel=mc.succ,
        priority=prio,
        obligation=obl,
    )


def restrict_choice(game: ObligationGame, choices: Mapping[int, int]) -> ObligationGame:
    """A copy of the game in which each owned configuration in ``choices``
    keeps the single edge to its chosen successor."""
    succ = list(game.succ)
    for config, successor in choices.items():
        if game.owners[config] is Owner.PROBABILISTIC or successor not in game.succ[config]:
            raise InternalInvariantError(
                f"cannot restrict {game.names[config]} to successor {successor}")
        succ[config] = (successor,)
    return replace(game, succ=tuple(succ))


def settle(game: ObligationGame, won: Mapping[int, bool]) -> ObligationGame:
    """A copy of the game in which each configuration in ``won`` is an
    obligation-free absorbing self-loop: priority 0 if won, 1 if lost."""
    owners, succ, kernel = list(game.owners), list(game.succ), list(game.kernel)
    priority, obligation = list(game.priority), list(game.obligation)
    for v, wins in won.items():
        owners[v], succ[v], kernel[v] = Owner.PROBABILISTIC, (v,), ((v, ONE),)
        priority[v], obligation[v] = (0 if wins else 1), None
    return replace(game, owners=tuple(owners), succ=tuple(succ), kernel=tuple(kernel),
                   priority=tuple(priority), obligation=tuple(obligation))
