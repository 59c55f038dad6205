"""Solver for finite turn-based stochastic parity games with obligations.

An obligation configuration contributes value only through a
*dependency certificate*: per obligation configuration v, either
undefined (bottom) or a finite set C_v of (target obligation, minimal
priority en route) pairs.  Undefined and the empty set are distinct
states: the empty set means the obligation is met without relying on
reaching further obligations.  A game dependency is good when

1. every referenced target has a defined (possibly empty) set,
2. no cycle of the labelled reference graph has an odd minimal label,
3. for every defined v, the value of its auxiliary monitor game
   (reach a chosen pair, or stay obligation-free and win the parity
   objective) meets v's own threshold.

The monitor game (``build_gamma_game``) tracks the minimal priority
seen along a path *after leaving v*: v's own priority is excluded, the
endpoint's included.  It is explored from v in one pass, and entering
any obligation configuration u with minimum m freezes the pair (u, m)
as an absorbing win iff the pair is chosen, else a loss.  See README,
"Monitor semantics".  Values then read off a single reduced game, the
game with met obligations settled as absorbing wins and unmet ones as
losses.

The label m of a pair exists only so that condition 2 can rule out odd
cycles.  A row that picks, of each obligation it reaches, all of its
labels or none is *label-free*, and its monitor game is never built:
below the root it is bisimilar to the game with every obligation
settled, as won iff its labels are picked, since parity is
prefix-independent, so its value is one Bellman step at v over that
game's values (``gamma_value``).  Each operation's ``SolveContext``
solves that game once per set of won obligations, and the reduced game
is the one whose won set is the met-set.  Only a row that depends on
its labels has its monitor game built and solved.

``find_best_dependency`` realizes the nondeterministic choice of a
certificate deterministically, as the least fixpoint of a lifting of
parity progress measures (Jurdzinski, STACS 2000) on the obligation
configurations: a measure certifies that the references consistent
with it close no cycle with an odd minimal label, and each lift raises
one configuration's measure to the least one at which those references
pass its threshold.  The fixpoint is unique, its met-set is the maximal
one, and the reported certificate is the least measure's consistent
pairs.

A Markov chain with obligations has no entry point of its own: it is
the game ``model.embed_chain_as_game`` makes of it, every configuration
a chance configuration, and is solved as any other game.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Optional, Sequence

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import (BudgetExceededError, InputFormatError,
                     InternalInvariantError)
from .graphs import reachable_from
from .model import (ONE, ZERO, ConfigRow, Obligation, ObligationGame, Owner,
                    dual_game, explore_game, format_rational, settle)
from .parity import Values, ValueVector, solve_values, value_vector

Pair = tuple[int, int]  # (target obligation configuration, priority label)


@dataclass(frozen=True)
class Dependency:
    """Per-obligation certificate: bottom or a finite set of pairs.

    ``entries`` holds one row per obligation configuration, sorted by
    configuration index; ``None`` is bottom and distinct from the empty
    tuple, which means "met without relying on further obligations".
    """

    entries: tuple[tuple[int, Optional[tuple[Pair, ...]]], ...]

    @staticmethod
    def from_mapping(game: ObligationGame,
                     mapping: Mapping[int, Optional[Iterable[Pair]]]) -> "Dependency":
        obligations = game.obligation_indices()
        unknown = set(mapping) - set(obligations)
        if unknown:
            names = ", ".join(game.names[v] for v in sorted(unknown))
            raise InputFormatError(f"dependency defined at non-obligation configurations: {names}")
        rows = []
        for v in obligations:
            row = mapping.get(v)
            rows.append((v, None if row is None else tuple(sorted(set(row)))))
        return Dependency(tuple(rows))

    def get(self, v: int) -> Optional[frozenset[Pair]]:
        for config, row in self.entries:
            if config == v:
                return None if row is None else frozenset(row)
        raise KeyError(v)

    def defined(self) -> frozenset[int]:
        return frozenset(v for v, row in self.entries if row is not None)

    def edges(self) -> list[tuple[int, int, int]]:
        """Labelled reference edges (source, target, priority)."""
        out = []
        for v, row in self.entries:
            if row:
                for u, i in row:
                    out.append((v, u, i))
        return out


@dataclass(frozen=True)
class GoodnessReport:
    """Verdict of the three goodness conditions with counterexample data.

    ``condition2``/``condition3`` are None when an earlier condition
    already failed.  ``gamma_values`` holds the exact monitor-game value
    for every defined obligation that was checked.
    """

    good: bool
    condition1: bool
    dangling: Optional[tuple[int, int]]
    condition2: Optional[bool]
    odd_cycle: Optional[tuple[tuple[int, int, int], ...]]
    condition3: Optional[bool]
    failing: Optional[tuple[int, Fraction]]
    gamma_values: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class ObligationValueReport:
    """Values, pre-values and the certifying dependency of one solve.

    Obligation configurations have value 0 or 1; all other values lie
    in [0, 1] and equal their pre-value.  ``pre_values`` at obligation
    configurations is the certificate measure before the threshold is
    applied: for met configurations it is their monitor value under the
    reported certificate, for unmet ones the best measure of reaching any
    met obligation or winning obligation-free.  Applying a configuration's
    own threshold to its pre-value always reproduces its 0/1 value; note
    the reported number can undercut the best monitor value over all good
    certificates, and the theoretical supremum over nested commitments (a
    configuration may lean on finitely many returns to itself, which a
    flat per-configuration certificate cannot express), without ever
    affecting a verdict.  ``reduced_solution`` carries the values and
    witness strategies of the reduced (settled) game.  ``stats`` holds the
    ``SolveContext`` counters of the operation as (name, count) pairs;
    they describe the work, not the result, and take no part in equality.
    """

    game: ObligationGame
    dependency: Dependency
    values: tuple[Fraction, ...]
    pre_values: tuple[Fraction, ...]
    fulfilled: frozenset[int]
    reduced_game: ObligationGame
    reduced_solution: ValueVector
    stats: tuple[tuple[str, int], ...] = field(compare=False)

    def value_of(self, name: str) -> Fraction:
        return self.values[self.game.index(name)]


# ---------------------------------------------------------------------------
# Monitor (gamma) games


@dataclass(eq=False)
class SolveContext:
    """Memo tables and work counters of one operation on one game.

    Every public entry point below makes a fresh context unless it is
    handed one, and drops it when it returns, so no memo outlives the
    operation that filled it.  ``pairs`` holds the reachable pairs by
    start configuration, and ``gammas`` the monitor-game values of rows
    that depend on their labels, by (start, pairs reached).  ``settled``
    holds the values of the game with every obligation settled, as won
    iff in W, which answer every label-free row (``gamma_value``) and the
    reduced game; it is keyed by W & ``entered``, the obligations that
    some edge enters (a self-loop counts), since settling one that no
    edge enters changes no other value.  The counters are deterministic:
    lifting tests (counted against ``max_dependency_nodes``), lifts,
    monitor games built and solved (misses of ``gammas``), hits of
    ``gammas``, settled games solved (misses of ``settled``) and
    monitor-game values answered by a Bellman step over a settled game.
    """

    COUNTERS: ClassVar[tuple[str, ...]] = (
        "lifting_tests", "lifts", "monitor_solves", "memo_hits", "settled_solves",
        "settled_answers")

    game: ObligationGame
    pairs: dict[int, frozenset[Pair]] = field(default_factory=dict)
    gammas: dict[tuple[int, frozenset[Pair]], Fraction] = field(default_factory=dict)
    settled: dict[frozenset[int], Values] = field(default_factory=dict)
    entered: frozenset[int] = field(init=False)
    lifting_tests: int = 0
    lifts: int = 0
    monitor_solves: int = 0
    memo_hits: int = 0
    settled_solves: int = 0
    settled_answers: int = 0

    def __post_init__(self) -> None:
        obligations = set(self.game.obligation_indices())
        self.entered = frozenset(t for succ in self.game.succ for t in succ
                                 if t in obligations)

    @staticmethod
    def of(game: ObligationGame, context: Optional["SolveContext"]) -> "SolveContext":
        """``context`` if it serves ``game``, a fresh context if it is None."""
        if context is None:
            return SolveContext(game)
        if context.game is not game:
            raise InputFormatError("the solve context belongs to another game")
        return context

    def settled_values(self, won: Iterable[int]) -> Values:
        """Values of the game with every obligation settled, won iff in ``won``,
        except that an obligation no edge enters is settled as lost."""
        key = self.entered.intersection(won)
        values = self.settled.get(key)
        if values is None:
            values = self.settled[key] = solve_values(settle(
                self.game, {u: u in key for u in self.game.obligation_indices()}))
            self.settled_solves += 1
        return values

    def counters(self) -> tuple[tuple[str, int], ...]:
        return tuple((name, getattr(self, name)) for name in self.COUNTERS)


def _bellman_step(game: ObligationGame, v: int, values: Sequence[Fraction]) -> Fraction:
    """The value of v when each successor t is worth ``values[t]``."""
    owner = game.owners[v]
    if owner is Owner.PROBABILISTIC:
        return sum((p * values[t] for t, p in game.kernel_row(v)), ZERO)
    successors = (values[t] for t in game.succ[v])
    return max(successors) if owner is Owner.PLAYER0 else min(successors)


def reachable_pairs(game: ObligationGame, start: int, *,
                    context: Optional[SolveContext] = None) -> frozenset[Pair]:
    """Frozen (obligation, minimal priority) pairs reachable from ``start``.

    Equal to the frozen pairs of ``start``'s monitor game
    (``build_gamma_game``), found by a search over (configuration, running
    minimum) pairs without building the game; memoized per start in the
    operation's ``SolveContext``.
    """
    ctx = SolveContext.of(game, context)
    pairs = ctx.pairs.get(start)
    if pairs is not None:
        return pairs
    if not game.succ[start]:
        raise InternalInvariantError(
            f"monitor start {game.names[start]} has no successor")
    obligation, priority, succ = game.obligation, game.priority, game.succ

    def successors(node: Pair) -> list[Pair]:
        config, m = node
        if obligation[config] is not None:  # a frozen pair
            return []
        return [(t, min(m, priority[t])) for t in succ[config]]

    seen = reachable_from([(t, priority[t]) for t in succ[start]], successors)
    pairs = ctx.pairs[start] = frozenset(
        node for node in seen if obligation[node[0]] is not None)
    return pairs


def build_gamma_game(game: ObligationGame, start: int,
                     pairs: Iterable[Pair]) -> tuple[ObligationGame, int]:
    """The obligation-free monitor game checking ``start`` against ``pairs``.

    Its nodes annotate the configurations reachable from ``start`` with
    the minimal priority m seen since leaving it.  The root ``name@start``
    is ``start`` with no minimum yet; a live node ``name@m`` is a
    configuration without obligation, with its owner, priority and
    moves; and the first visit to an obligation configuration u freezes
    its pair as the absorbing node ``name!m``, won (priority 0) iff
    (u, m) is among the pairs, lost (priority 1) otherwise.  The minimum
    never rises along a path.  Nodes are numbered in discovery order
    (:func:`model.explore_game`): the root is 0, and a node's successors
    follow its configuration's sorted successors.  Size is at most
    |V|*(k+1) + 1.
    """
    if not game.succ[start]:
        raise InternalInvariantError(
            f"monitor start {game.names[start]} has no successor")
    chosen = frozenset(pairs)

    def step(m_before: Optional[int], target: int) -> tuple[bool, int, int]:
        m = game.priority[target] if m_before is None else min(m_before, game.priority[target])
        return game.obligation[target] is not None, target, m

    def expand(key: tuple[bool, int, Optional[int]]) -> ConfigRow:
        frozen, config, m = key
        name = game.names[config]
        if frozen:
            won = (config, m) in chosen
            return f"{name}!{m}", Owner.PROBABILISTIC, 0 if won else 1, None, [(key, ONE)]
        owner = game.owners[config]
        if owner is Owner.PROBABILISTIC:
            moves: list = [(step(m, t), p) for t, p in game.kernel_row(config)]
        else:
            moves = [step(m, t) for t in game.succ[config]]
        label = "start" if m is None else m
        return f"{name}@{label}", owner, game.priority[config], None, moves

    return explore_game((False, start, None), expand)[0], 0


def gamma_value(game: ObligationGame, start: int, pairs: Iterable[Pair], *,
                context: Optional[SolveContext] = None) -> Fraction:
    """Exact value of the monitor game at its start configuration.

    A row is label-free when, of each obligation u it picks a reachable
    pair of, it picks every label with which ``start`` reaches u.  Let W
    be those obligations.  Below its root the monitor game is then
    bisimilar to the game with every obligation settled, as won iff in W:
    a live node (c, m) moves, scores and is worth what c is, as parity is
    prefix-independent, and a frozen node (u, m) is the same absorbing
    sink as the settled u.  The root is never re-entered, so the value is
    one Bellman step at ``start`` over that game's values
    (``SolveContext.settled_values``), and no monitor game is built.
    Only a row that depends on its labels, which condition 2 needs to
    rule out odd cycles, has its monitor game built and solved, memoized
    per (start, pairs reached) in the operation's ``SolveContext``.
    """
    ctx = SolveContext.of(game, context)
    reached = reachable_pairs(game, start, context=ctx)
    chosen = reached.intersection(pairs)
    won = {u for u, _ in chosen}
    if all(pair in chosen for pair in reached if pair[0] in won):
        ctx.settled_answers += 1
        return _bellman_step(game, start, ctx.settled_values(won))
    key = (start, chosen)
    value = ctx.gammas.get(key)
    if value is not None:
        ctx.memo_hits += 1
        return value
    gamma, root = build_gamma_game(game, start, chosen)
    value = ctx.gammas[key] = solve_values(gamma)[root]
    ctx.monitor_solves += 1
    return value


# ---------------------------------------------------------------------------
# Goodness conditions


def _well_typed(game: ObligationGame, dep: Dependency) -> None:
    obligations = set(game.obligation_indices())
    if {v for v, _ in dep.entries} != obligations:
        raise InputFormatError("dependency must have one entry per obligation configuration")
    k = game.max_priority()
    for v, row in dep.entries:
        for u, i in row or ():
            if u not in obligations:
                raise InputFormatError(
                    f"dependency of {game.names[v]} targets non-obligation "
                    f"configuration {game.names[u]}")
            if not (0 <= i <= k):
                raise InputFormatError(
                    f"dependency of {game.names[v]} uses priority {i} outside 0..{k}")


def _obligation_at(game: ObligationGame, v: int) -> Obligation:
    ob = game.obligation[v]
    if ob is None:
        raise InternalInvariantError(f"{game.names[v]} carries no obligation")
    return ob


def check_condition1(game: ObligationGame, dep: Dependency) -> tuple[bool, Optional[tuple[int, int]]]:
    """Every referenced target has a defined (possibly empty) set."""
    _well_typed(game, dep)
    defined = dep.defined()
    for v, row in dep.entries:
        for u, _ in row or ():
            if u not in defined:
                return False, (v, u)
    return True, None


def find_odd_cycle(edges: Sequence[tuple[int, int, int]]) -> Optional[tuple[tuple[int, int, int], ...]]:
    """A cycle whose minimal label is odd, or None.

    For each odd label i, ascending, and each i-labelled edge (v, u, i),
    in sorted order, search breadth-first from u over the edges labelled
    >= i; the first edge whose search reaches v closes a cycle with
    minimum exactly i, completed by the search's path from u to v.
    """
    for i in sorted({lab for _, _, lab in edges if lab % 2 == 1}):
        adj: dict[int, list[tuple[int, int, int]]] = {}
        for e in edges:
            if e[2] >= i:
                adj.setdefault(e[0], []).append(e)
        for e in sorted(e for e in edges if e[2] == i):
            v, u, _ = e
            parent: dict[int, tuple[int, int, int]] = {}
            seen, frontier = {u}, deque([u])
            while frontier and v not in seen:
                for e2 in adj.get(frontier.popleft(), ()):
                    if e2[1] not in seen:
                        seen.add(e2[1])
                        parent[e2[1]] = e2
                        frontier.append(e2[1])
            if v in seen:
                path = []
                x = v
                while x != u:
                    path.append(parent[x])
                    x = parent[x][0]
                return (e, *reversed(path))
    return None


def check_condition2(game: ObligationGame, dep: Dependency
                     ) -> tuple[bool, Optional[tuple[tuple[int, int, int], ...]]]:
    """No cycle of the labelled reference graph has an odd minimal label."""
    cycle = find_odd_cycle(dep.edges())
    return (cycle is None), cycle


def check_condition3(game: ObligationGame, dep: Dependency, *,
                     context: Optional[SolveContext] = None
                     ) -> tuple[bool, Optional[tuple[int, Fraction]], tuple[tuple[int, Fraction], ...]]:
    """Every defined obligation meets its own threshold in its monitor game."""
    gammas = []
    failing = None
    for v, row in dep.entries:
        if row is None:
            continue
        value = gamma_value(game, v, row, context=context)
        gammas.append((v, value))
        if failing is None and not _obligation_at(game, v).holds(value):
            failing = (v, value)
    return failing is None, failing, tuple(gammas)


def verify_dependency(game: ObligationGame, dep: Dependency, *,
                      context: Optional[SolveContext] = None) -> GoodnessReport:
    """Check the certificate; polynomial apart from the parity solves."""
    ok1, dangling = check_condition1(game, dep)
    if not ok1:
        return GoodnessReport(False, False, dangling, None, None, None, None, ())
    ok2, cycle = check_condition2(game, dep)
    if not ok2:
        return GoodnessReport(False, True, None, False, cycle, None, None, ())
    ok3, failing, gammas = check_condition3(game, dep, context=context)
    return GoodnessReport(ok3, True, None, True, None, ok3, failing, gammas)


# ---------------------------------------------------------------------------
# Values from a certificate


def values_given_dependency(game: ObligationGame, dep: Dependency, *,
                            witnesses: bool = True,
                            context: Optional[SolveContext] = None) -> ObligationValueReport:
    """Exact values of the game under a good dependency certificate.

    The reduced game settles the met obligations as won and the rest as
    lost, so its values are the settled values of the met-set
    (``SolveContext.settled_values``), shared with the label-free rows
    that pick the same set, with each obligation's entry set by whether it
    is met.  Pre-values at obligation configurations are the certificate's
    own monitor values (met) or the best measure of reaching any met
    obligation (unmet): the monitor value of a row that picks every pair of
    every met obligation, which is label-free, so one Bellman step over
    those same values.
    """
    ctx = SolveContext.of(game, context)
    report = verify_dependency(game, dep, context=ctx)
    if not report.good:
        raise InputFormatError("dependency is not good; verify it for a counterexample")
    fulfilled = dep.defined()
    obligations = game.obligation_indices()
    reduced = settle(game, {v: v in fulfilled for v in obligations})
    settled = ctx.settled_values(fulfilled)
    gammas = dict(report.gamma_values)
    values, pre = list(settled), list(settled)
    for v in obligations:
        values[v] = ONE if v in fulfilled else ZERO
        if v in fulfilled:
            pre[v] = gammas[v]
        else:
            ctx.settled_answers += 1
            pre[v] = _bellman_step(game, v, settled)
    solution = value_vector(reduced, tuple(values), witnesses=witnesses)
    return ObligationValueReport(
        game=game, dependency=dep, values=solution.values, pre_values=tuple(pre),
        fulfilled=fulfilled, reduced_game=reduced, reduced_solution=solution,
        stats=ctx.counters())


# ---------------------------------------------------------------------------
# Searching for the best dependency


def find_best_dependency(game: ObligationGame, *,
                         budgets: Budgets = DEFAULT_BUDGETS,
                         witnesses: bool = True
                         ) -> tuple[Dependency, ObligationValueReport]:
    """Good dependency with the maximal met-set, by progress-measure lifting.

    A measure is top or a tuple with one component in 0..|O| per odd label
    <= the maximal priority, lower labels more significant; it is held as
    that tuple read as an integer in base |O|+1, and top as None.  A pair
    (u, i) of v is consistent when u is not at top and v's measure,
    truncated to the odd labels <= i, is at least u's truncated the same
    way, strictly for odd i; so consistent pairs close no cycle with an
    odd minimal label.  Lifting v raises its measure to the least one at
    which its consistent pairs pass its threshold in the monitor game, or
    to top.  Lifting is monotone, so its least fixpoint is unique and does
    not depend on the order of the lifts.  The met-set is every
    configuration below top, each with its consistent pairs as row.  Any
    good certificate gives a measure that is a prefixpoint (count the
    i-labelled references on paths over labels >= i), so this met-set
    contains every good certificate's, and the values under it are the
    maxima over all good certificates.

    ``budgets.max_dependency_nodes`` bounds the monitor-game tests of the
    lifting, memo hits included.  One ``SolveContext`` serves the search
    and the values read off its certificate; the report carries its
    counters.
    """
    obligations = game.obligation_indices()
    if len(obligations) > budgets.max_obligations:
        raise BudgetExceededError(
            f"{len(obligations)} obligation configurations exceed the budget "
            f"of {budgets.max_obligations}")
    if game.max_priority() > budgets.max_priority:
        raise BudgetExceededError(
            f"maximal priority {game.max_priority()} exceeds the budget "
            f"of {budgets.max_priority}")

    ctx = SolveContext(game)
    radix, width = len(obligations) + 1, (game.max_priority() + 1) // 2
    # an odd self-loop closes an odd cycle on its own, so it is never kept
    universe = {v: sorted((u, m) for u, m in reachable_pairs(game, v, context=ctx)
                          if not (u == v and m % 2 == 1))
                for v in obligations}
    dependents: dict[int, set[int]] = {v: set() for v in obligations}
    for v in obligations:
        for u, _ in universe[v]:
            if u != v:
                dependents[u].add(v)
    measure: dict[int, Optional[int]] = dict.fromkeys(obligations, 0)

    def consistent(v: int, base: int) -> dict[Pair, int]:
        """Each pair of v with the least measure >= base consistent with it."""
        out = {}
        for u, i in universe[v]:
            target = measure[u]
            if target is not None:
                unit = radix ** (width - (i + 1) // 2)
                least = max(base, (target // unit + i % 2) * unit)
                if least < radix ** width:
                    out[(u, i)] = least
        return out

    def lift(v: int, base: int) -> Optional[int]:
        ctx.lifts += 1
        pairs = consistent(v, base)
        for r in sorted({base, *pairs.values()}):
            ctx.lifting_tests += 1
            if ctx.lifting_tests > budgets.max_dependency_nodes:
                raise BudgetExceededError(
                    f"dependency search made more than "
                    f"{budgets.max_dependency_nodes} monitor-game tests")
            chosen = [p for p, least in pairs.items() if least <= r]
            if _obligation_at(game, v).holds(gamma_value(game, v, chosen, context=ctx)):
                return r
        return None

    pending, queued = deque(obligations), set(obligations)
    while pending:
        v = pending.popleft()
        queued.discard(v)
        base = measure[v]
        if base is not None and (lifted := lift(v, base)) != base:
            measure[v] = lifted
            for w in sorted(dependents[v] - queued):
                pending.append(w)
                queued.add(w)

    rows = {v: sorted(p for p, least in consistent(v, base).items() if least == base)
            for v, base in measure.items() if base is not None}
    dep = Dependency.from_mapping(game, rows)
    return dep, values_given_dependency(game, dep, witnesses=witnesses, context=ctx)


# ---------------------------------------------------------------------------
# Decision procedure and the Markov chain special case


@dataclass(frozen=True)
class ValueDecision:
    verdict: bool
    value: Fraction
    primal: tuple[Dependency, ObligationValueReport]
    dual: tuple[Dependency, ObligationValueReport]


def decide_value(game: ObligationGame, config: int, cmp: str, threshold: Fraction,
                 *, budgets: Budgets = DEFAULT_BUDGETS) -> ValueDecision:
    """Decide value(config) cmp threshold with a two-sided certificate.

    The dual game is solved as the co-certificate and the answer is
    refused (InternalInvariantError) unless the two value vectors sum to
    one at every configuration.
    """
    if not 0 <= config < len(game):
        raise InputFormatError(
            f"configuration index {config} is out of range for {len(game)} configurations")
    query = Obligation(cmp, threshold)  # validates the comparator and the threshold
    dep0, rep0 = find_best_dependency(game, budgets=budgets, witnesses=False)
    dual = dual_game(game)
    # the dual's priority shift is our construction, not the user's input
    dual_budgets = replace(budgets, max_priority=budgets.max_priority + 1)
    dep1, rep1 = find_best_dependency(dual, budgets=dual_budgets, witnesses=False)
    for v in range(len(game)):
        if rep0.values[v] + rep1.values[v] != ONE:
            raise InternalInvariantError(
                f"determinacy identity failed at {game.names[v]}: "
                f"{format_rational(rep0.values[v])} + "
                f"{format_rational(rep1.values[v])} != 1")
    value = rep0.values[config]
    return ValueDecision(verdict=query.holds(value), value=value,
                         primal=(dep0, rep0), dual=(dep1, rep1))


def value_of_prefix(report: ObligationValueReport, prefix: Sequence[str]) -> Fraction:
    """Value of a finite prefix: the value at its last configuration.

    Monitor and reduced objectives are positional, so a prefix's value
    depends only on where it ends; the prefix is still validated to be a
    path of the game.
    """
    if not prefix:
        raise InputFormatError("prefix must be non-empty")
    game = report.game
    indices = [game.index(name) for name in prefix]
    for a, b in zip(indices, indices[1:]):
        if b not in game.succ[a]:
            raise InputFormatError(
                f"prefix step {game.names[a]} -> {game.names[b]} is not an edge")
    return report.values[indices[-1]]
