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

The monitor game settles v's monitor product (:func:`model.settle`):
a frozen node is an absorbing win iff its pair is chosen, else a loss.
Values then read off a single reduced game, the game with met
obligations settled as absorbing wins and unmet ones as losses.

``find_best_dependency`` realizes the nondeterministic choice of a
certificate deterministically: a greatest-fixpoint pass evicts
obligations that fail even with every reachable pair available, then
candidate met-sets are enumerated largest-first; for a fixed met-set,
feasibility is decided by enumerating the maximal odd-cycle-free
subgraphs of the reachable reference graph (every good certificate
extends to one, and monitor values are monotone in the pair sets, so
the enumeration is complete).  Candidate certificates are evaluated
independently; results are deterministic and scheduling-independent,
the reported certificate being the lexicographically first maximal one.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .budgets import DEFAULT_BUDGETS, Budgets
from .chains import MonitorProduct, min_priority_monitor_product
from .errors import (BudgetExceededError, InputFormatError,
                     InternalInvariantError)
from .model import (ONE, ZERO, LabeledMarkovChain, Obligation, ObligationGame,
                    dual_game, embed_chain_as_game, format_rational, settle)
from .parity import ValueVector, solve_parity, solve_values

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
    applied: for configurations met by the search it is the best
    monitor value over all passing maximal certificates, for unmet ones
    the best measure of reaching any met obligation or winning
    obligation-free.  Applying a configuration's own threshold to its
    pre-value always reproduces its 0/1 value; note the reported number
    can undercut the theoretical supremum over nested commitments (a
    configuration may lean on finitely many returns to itself, which a
    flat per-configuration certificate cannot express), without ever
    affecting a verdict.  ``reduced_solution`` carries the values and
    witness strategies of the reduced (settled) game.
    """

    game: ObligationGame
    dependency: Dependency
    values: tuple[Fraction, ...]
    pre_values: tuple[Fraction, ...]
    fulfilled: frozenset[int]
    reduced_game: ObligationGame
    reduced_solution: ValueVector

    def value_of(self, name: str) -> Fraction:
        return self.values[self.game.index(name)]


# ---------------------------------------------------------------------------
# Monitor (gamma) games


@functools.lru_cache(maxsize=4096)
def _monitor(game: ObligationGame, start: int) -> MonitorProduct:
    return min_priority_monitor_product(game, start)


def reachable_pairs(game: ObligationGame, start: int) -> frozenset[Pair]:
    """Frozen (obligation, minimal priority) pairs reachable from ``start``."""
    return frozenset((c, m) for _, c, m in _monitor(game, start).frozen)


def build_gamma_game(game: ObligationGame, start: int,
                     pairs: Iterable[Pair]) -> tuple[ObligationGame, int]:
    """The obligation-free monitor game checking ``start`` against ``pairs``.

    The monitor product of ``start``, settled: a frozen node (u, m) is won
    iff (u, m) is among the pairs, lost otherwise; plays that stay
    obligation-free keep their original priorities.  Every node keeps its
    name and index.  Size is at most |V|*(k+1) + 1.
    """
    chosen = frozenset(pairs)
    monitor = _monitor(game, start)
    return settle(monitor.product, {node: (config, m) in chosen
                                    for node, config, m in monitor.frozen}), monitor.start


def gamma_value(game: ObligationGame, start: int, pairs: Iterable[Pair]) -> Fraction:
    """Exact value of the monitor game at its start configuration.

    Memoized per (game, start, pair set) by ``_gamma_value``, as the
    monitor products are by ``_monitor``; both are ``functools.lru_cache``.
    """
    return _gamma_value(game, start, frozenset(pairs))


@functools.lru_cache(maxsize=65536)
def _gamma_value(game: ObligationGame, start: int, pairs: frozenset[Pair]) -> Fraction:
    gamma, root = build_gamma_game(game, start, pairs)
    return solve_values(gamma)[root]


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


def check_condition3(game: ObligationGame, dep: Dependency
                     ) -> tuple[bool, Optional[tuple[int, Fraction]], tuple[tuple[int, Fraction], ...]]:
    """Every defined obligation meets its own threshold in its monitor game."""
    gammas = []
    failing = None
    for v, row in dep.entries:
        if row is None:
            continue
        value = gamma_value(game, v, row)
        gammas.append((v, value))
        if failing is None and not _obligation_at(game, v).holds(value):
            failing = (v, value)
    return failing is None, failing, tuple(gammas)


def verify_dependency(game: ObligationGame, dep: Dependency) -> GoodnessReport:
    """Check the certificate; polynomial apart from the parity solves."""
    ok1, dangling = check_condition1(game, dep)
    if not ok1:
        return GoodnessReport(False, False, dangling, None, None, None, None, ())
    ok2, cycle = check_condition2(game, dep)
    if not ok2:
        return GoodnessReport(False, True, None, False, cycle, None, None, ())
    ok3, failing, gammas = check_condition3(game, dep)
    return GoodnessReport(ok3, True, None, True, None, ok3, failing, gammas)


# ---------------------------------------------------------------------------
# Values from a certificate


def values_given_dependency(game: ObligationGame, dep: Dependency, *,
                            witnesses: bool = True) -> ObligationValueReport:
    """Exact values of the game under a good dependency certificate.

    Pre-values at obligation configurations are the certificate's own
    monitor values (met) or the best measure of reaching any met
    obligation (unmet); ``find_best_dependency`` overrides the met ones
    with the maximum over all passing maximal certificates.
    """
    report = verify_dependency(game, dep)
    if not report.good:
        raise InputFormatError("dependency is not good; verify it for a counterexample")
    fulfilled = dep.defined()
    reduced = settle(game, {v: v in fulfilled for v in game.obligation_indices()})
    solution = solve_parity(reduced, witnesses=witnesses)
    gammas = dict(report.gamma_values)
    values = list(solution.values)
    pre = list(solution.values)
    for v in game.obligation_indices():
        values[v] = ONE if v in fulfilled else ZERO
        if v in fulfilled:
            pre[v] = gammas[v]
        else:
            pre[v] = gamma_value(game, v, _pair_universe(game, v, fulfilled))
    return ObligationValueReport(
        game=game, dependency=dep, values=tuple(values), pre_values=tuple(pre),
        fulfilled=fulfilled, reduced_game=reduced, reduced_solution=solution)


def _pair_universe(game: ObligationGame, v: int, met: frozenset[int]) -> frozenset[Pair]:
    """Reachable pairs of v that target met obligations, minus odd self-loops."""
    return frozenset((u, m) for (u, m) in reachable_pairs(game, v)
                     if u in met and not (u == v and m % 2 == 1))


# ---------------------------------------------------------------------------
# Searching for the best dependency


def _rows_of(met: Iterable[int], edge_set: frozenset[tuple[int, int, int]]
             ) -> dict[int, frozenset[Pair]]:
    grouped: dict[int, set[Pair]] = {v: set() for v in met}
    for v, u, i in edge_set:
        grouped[v].add((u, i))
    return {v: frozenset(pairs) for v, pairs in grouped.items()}


def _feasible_assignment(game: ObligationGame, met: frozenset[int],
                         budget: Budgets
                         ) -> Optional[tuple[dict[int, frozenset[Pair]], dict[int, Fraction]]]:
    """Lexicographically first passing maximal certificate for a met-set.

    Branch-and-bound over odd-cycle-free subsets of the reachable
    reference graph: branching on the edges of some odd-minimal cycle
    covers every odd-cycle-free subset, and since monitor values are
    monotone in the edge set, a branch whose current rows already miss
    some threshold cannot contain a passing certificate and is pruned.
    Returns (rows, best monitor value per met configuration over all
    passing maximal certificates), or None when the met-set admits no
    good certificate.
    """
    universe = tuple(sorted(
        (v, u, i)
        for v in met
        for (u, i) in _pair_universe(game, v, met)))
    order = sorted(met)
    terminals: list[frozenset] = []
    explored = 0

    def bounds_pass(edge_set: frozenset) -> bool:
        rows = _rows_of(met, edge_set)
        for v in order:
            if not _obligation_at(game, v).holds(gamma_value(game, v, rows[v])):
                return False
        return True

    def explore(current: frozenset, kept: frozenset) -> None:
        # Enumerates the odd-cycle-free subsets of `current` containing
        # `kept`: branch i of a cycle removes its i-th removable edge and
        # pins the earlier ones, so the subtrees partition the space.
        nonlocal explored
        explored += 1
        if explored > budget.max_dependency_nodes:
            raise BudgetExceededError(
                f"dependency search explored more than "
                f"{budget.max_dependency_nodes} edge sets")
        if not bounds_pass(current):
            return
        cycle = find_odd_cycle(sorted(current))
        if cycle is None:
            terminals.append(current)
            return
        removable = [e for e in cycle if e not in kept]
        pinned = set(kept)
        for e in removable:
            explore(current - {e}, frozenset(pinned))
            pinned.add(e)

    explore(frozenset(universe), frozenset())
    if not terminals:
        return None
    maximal = [t for t in terminals if not any(t < other for other in terminals)]
    best: dict[int, Fraction] = {}
    for edge_set in maximal:
        rows = _rows_of(met, edge_set)
        for v in met:
            value = gamma_value(game, v, rows[v])
            if v not in best or value > best[v]:
                best[v] = value
    chosen = min(maximal, key=lambda t: tuple(sorted(t)))
    return _rows_of(met, chosen), best


def find_best_dependency(game: ObligationGame, *,
                         budgets: Budgets = DEFAULT_BUDGETS,
                         witnesses: bool = True
                         ) -> tuple[Dependency, ObligationValueReport]:
    """Deterministic search for a good dependency with a maximal met-set.

    The met-sets of good certificates are closed under union, so the
    inclusion-maximal one is unique and dominates every other
    certificate's values pointwise; per-configuration values under it
    are therefore the per-configuration maxima over all good
    certificates.
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
    if not obligations:
        dep = Dependency(())
        return dep, values_given_dependency(game, dep, witnesses=witnesses)

    # Greatest-fixpoint pass: evict every obligation that fails even with
    # all reachable pairs into the current candidate set available.  Good
    # certificates only shrink monitor values relative to that bound, so
    # no member of a good met-set is ever evicted.
    candidates = set(obligations)
    changed = True
    while changed:
        changed = False
        for v in sorted(candidates):
            bound = gamma_value(game, v, _pair_universe(game, v, frozenset(candidates)))
            if not _obligation_at(game, v).holds(bound):
                candidates.discard(v)
                changed = True

    chosen_rows: dict[int, frozenset[Pair]] = {}
    best_gammas: dict[int, Fraction] = {}
    met: frozenset[int] = frozenset()
    found = False
    order = sorted(candidates)
    for size in range(len(order), -1, -1):
        for combo in itertools.combinations(order, size):
            attempt = _feasible_assignment(game, frozenset(combo), budgets)
            if attempt is not None:
                chosen_rows, best_gammas = attempt
                met = frozenset(combo)
                found = True
                break
        if found:
            break
    dep = Dependency.from_mapping(game, {
        v: (sorted(chosen_rows[v]) if v in met else None) for v in obligations})
    report = values_given_dependency(game, dep, witnesses=witnesses)
    pre = tuple(best_gammas.get(v, x) for v, x in enumerate(report.pre_values))
    return dep, replace(report, pre_values=pre)


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
    if not (ZERO <= threshold <= ONE):
        raise InputFormatError("threshold must lie in [0,1]")
    ob = Obligation(cmp, threshold)  # reuse comparator validation
    dep0, rep0 = find_best_dependency(game, budgets=budgets, witnesses=False)
    dual = dual_game(game)
    # the dual's priority shift is our construction, not the user's input
    dual_budgets = budgets.override(max_priority=budgets.max_priority + 1)
    dep1, rep1 = find_best_dependency(dual, budgets=dual_budgets, witnesses=False)
    for v in range(len(game)):
        if rep0.values[v] + rep1.values[v] != ONE:
            raise InternalInvariantError(
                f"determinacy identity failed at {game.names[v]}: "
                f"{format_rational(rep0.values[v])} + "
                f"{format_rational(rep1.values[v])} != 1")
    value = rep0.values[config]
    return ValueDecision(verdict=ob.holds(value), value=value,
                         primal=(dep0, rep0), dual=(dep1, rep1))


def solve_chain_obligations(mc: LabeledMarkovChain,
                            priority: Mapping[str, int] | Sequence[int],
                            obligations: Mapping[str, Obligation] | None = None,
                            *, budgets: Budgets = DEFAULT_BUDGETS,
                            witnesses: bool = True
                            ) -> tuple[Dependency, ObligationValueReport]:
    """Solve a Markov chain with obligations by embedding it as a game."""
    game = embed_chain_as_game(mc, priority, obligations)
    return find_best_dependency(game, budgets=budgets, witnesses=witnesses)


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
