"""Exact values and optimal pure memoryless strategies for finite
turn-based stochastic parity games (no obligations).

Two solvers share one contract and must agree bit-for-bit wherever both
run:

* ``solve_parity_oracle`` is the normative semantics: enumerate every
  pure memoryless strategy pair, reduce each pair to a Markov chain,
  take the exact parity measure, and fold max over Player 0 / min over
  Player 1.  Sound by positional determinacy; feasible only at desk
  scale, guarded by a strategy-pair budget.

* ``solve_parity`` rests on an exact single-player (MDP) parity solver:
  the maximal probability of a parity objective in an MDP equals the
  maximal probability of reaching the union of end components whose
  minimal priority is even (end components found by the standard
  maximal-end-component refinement, reachability by policy iteration
  with exact rational policy evaluation after graph-based zero-set
  elimination).  The best response to a fixed positional strategy is
  such an MDP solve, so every candidate Player-0 strategy yields a
  certified lower bound on the value vector, and symmetrically on the
  dual game (players swapped, priorities shifted by one) for Player 1.
  First, though, the game is solved qualitatively: by qualitative
  determinacy, value 1 and value 0 are exactly the two players'
  almost-sure regions, and ``_as_strategy`` returns each with a
  positional strategy, and both strategies must pass a graph-only
  certificate (``_certify_as``).  Each region is sought only outside a
  dominion of the other side (Zielonka, TCS 1998): Player 0 wins almost
  surely nowhere in Player 1's positive attractor of the absorbing
  configurations of odd priority, nor Player 1 anywhere in Player 0's
  positive attractor of Player 0's region, since from there the play
  reaches the opponent's sure win with positive probability.  The
  complement of a positive attractor is closed for chance and the
  opponent, and an almost-sure strategy never leaves its region, so the
  region found there is the whole game's.  When the regions cover the
  game, the values are 0/1 without a best response.  Otherwise the rest
  is solved on a compact residual game (``_residual``), in which each
  region is one absorbing sink of its value: by the chain / MDP analysis
  when one player owns none of it, else by strategy improvement on it
  and on its dual; once the two bounds sum to one at every
  configuration, they provably *are* the values.  Each side climbs by
  value switches, and where the bounds leave a gap it also switches to
  win a value class almost surely (``_class_step``), which makes the
  improvement complete: a strategy that admits neither step is optimal.

The qualitative analysis rests on two worklists over predecessor lists
and successor counters built per call, each O(E) in the edges of its
sub-arena: the trap fixpoint ``_sure_safe``, and the positive attractor
``_pos_attr``, one breadth-first search back from the targets that
returns the attracting player's moves with the set.  An almost-sure
attractor drops the opponent's positive attractor of its sure-safe
region until there is none.  The almost-sure region is Zielonka's
recursion on these attractors (Chatterjee, Jurdziński & Henzinger,
"Quantitative stochastic parity games", SODA 2004), and its strategy
composes attractor moves with the moves of the sub-arenas' regions.
Maximal end components are refined one SCC at a time: trap a part with
the controller's ``_sure_safe``, split the trap into its SCCs, and keep
a part that is its own trap.  ``_winning_end_components`` decomposes the
nested levels ``{priority >= e}`` of one parity, each inside the
components of the level before.  Strategies are fixed through
``model.restrict_choice``, and Player 1's best response is Player 0's
MDP solve on the dual game.  The solvers keep nothing between calls:
each call solves its game afresh.

Reported witness strategies are canonical so both solvers return the
same object: the lexicographically first optimal strategy (by
configuration index, then successor index), obtained by fixing one
choice at a time to the first successor that leaves the value vector
unchanged.  Whether a restriction of one player's moves keeps the values
is decided on the graph alone, by the value-class characterisation of
Chatterjee, Jurdziński & Henzinger: the player must still win almost
surely, from all of each value class of positive value, the class game,
built from the class alone, in which its successors outside it and its
chance configurations leaving it are settled (``_class_game``,
``_keeps_values``).  Most choices need no such test: each class holds an
almost-sure strategy of its class game, solved once or left by its last
passing test, and a candidate that strategy picks keeps the values.  The
finished strategy is certified the same way, with ``_certify_as`` on
each class game, so a witness costs no linear system.  Enumeration in
the oracle may be parallelized over Player-0 strategies as long as this
deterministic reduction is kept.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .budgets import DEFAULT_BUDGETS, Budgets
from .chains import Rows, parity_measure, reach_probability
from .errors import (InputFormatError, InternalInvariantError,
                     OracleInfeasibleError)
from .graphs import tarjan_scc
from .model import (ONE, OPPONENT, ZERO, Obligation, ObligationGame, Owner,
                    PureMemorylessStrategy, dual_game, game_from_rows,
                    restrict_choice, settle)

Values = tuple[Fraction, ...]


@dataclass(frozen=True)
class ValueVector:
    """Per-configuration values with optional optimal witness strategies.

    Values lie in [0, 1].  When present, ``sigma`` guarantees Player 0
    at least the values against every opponent strategy and ``pi``
    bounds Player 0 from above symmetrically; both are checkable with
    induce_chain + parity_measure.
    """

    values: Values
    sigma: Optional[PureMemorylessStrategy]
    pi: Optional[PureMemorylessStrategy]


def induce_chain(game: ObligationGame,
                 sigma: PureMemorylessStrategy,
                 pi: PureMemorylessStrategy) -> Rows:
    """Transition rows of the Markov chain obtained by fixing both
    players' strategies."""
    smap, pmap = sigma.as_dict(), pi.as_dict()
    v0 = {i for i, o in enumerate(game.owners) if o is Owner.PLAYER0}
    v1 = {i for i, o in enumerate(game.owners) if o is Owner.PLAYER1}
    if set(smap) != v0 or set(pmap) != v1:
        raise InputFormatError("strategy domain does not match the owned configurations")
    rows = []
    for i, owner in enumerate(game.owners):
        if owner is Owner.PROBABILISTIC:
            rows.append(game.kernel_row(i))
        else:
            choice = smap[i] if owner is Owner.PLAYER0 else pmap[i]
            if choice not in game.succ[i]:
                raise InputFormatError(
                    f"strategy chooses a non-edge at {game.names[i]}")
            rows.append(((choice, ONE),))
    return tuple(rows)


def _require_parity_game(game: ObligationGame) -> None:
    if any(o is not None for o in game.obligation):
        raise InputFormatError("the parity solver requires an obligation-free game")


# ---------------------------------------------------------------------------
# Qualitative analysis: positive attractors, sure safety, almost-sure regions
# with their strategies, and the certificate that checks such a strategy.
#
# All fixpoints are computed inside a sub-arena `sub`; edges leaving `sub`
# are ignored.  The recursion only ever descends into sub-arenas arising as
# complements of positive attractors, which are closed for the probabilistic
# configurations, so kernel rows stay meaningful, or into the same sub-arena
# of a game with part of it settled as won.


def _sure_safe(game: ObligationGame, player: Owner, allowed: frozenset[int],
               sub: frozenset[int]) -> frozenset[int]:
    """Greatest set inside `allowed` that `player` can surely never leave.

    One scan of the edges of ``allowed & sub`` records each member's
    predecessors in the set and counts its successors there.  A member
    is doomed when none of its successors is left, or when it is not
    `player`'s and has an edge to ``sub`` outside the set.  A worklist
    then removes the doomed and propagates through the predecessors: a
    `player` configuration goes when its counter reaches zero, any other
    at once.  Each edge is handled a bounded number of times, so a call
    costs O(E) in the edges of ``allowed & sub``.
    """
    owners, succ = game.owners, game.succ
    safe = set(allowed & sub)
    preds: dict[int, list[int]] = {v: [] for v in safe}
    count: dict[int, int] = {}
    doomed = []
    for v in safe:
        inside, leaks = 0, False
        for u in succ[v]:
            if u in safe:
                inside += 1
                preds[u].append(v)
            elif u in sub:
                leaks = True
        count[v] = inside
        if not inside or (leaks and owners[v] is not player):
            doomed.append(v)
    safe.difference_update(doomed)
    while doomed:
        for p in preds[doomed.pop()]:
            if p in safe:
                if owners[p] is player:
                    count[p] -= 1
                    if count[p]:
                        continue
                safe.remove(p)
                doomed.append(p)
    return frozenset(safe)


def _pos_attr(game: ObligationGame, player: Owner, targets: Iterable[int],
              sub: frozenset[int]) -> tuple[frozenset[int], dict[int, int]]:
    """States where `player` forces reaching `targets` with positive
    probability, and `player`'s moves there.

    A breadth-first search back from the targets inside `sub`, in which a
    configuration with no successor in `sub` joins at once.  Each `player`
    member outside the targets moves to the successor it was first
    reached from, one layer closer, so every play consistent with the
    moves reaches the targets with positive probability.
    """
    owners, succ = game.owners, game.succ
    opponent = OPPONENT[player]
    queue = sorted(v for v in targets if v in sub)
    attractor = set(queue)
    preds: dict[int, list[int]] = {v: [] for v in sub}
    count: dict[int, int] = {}
    for v in sub - attractor:
        inside = 0
        for u in succ[v]:
            if u in sub:
                inside += 1
                preds[u].append(v)
        if inside:
            count[v] = inside
        else:
            attractor.add(v)
            queue.append(v)
    moves: dict[int, int] = {}
    for u in queue:
        for p in preds[u]:
            if p in attractor:
                continue
            if owners[p] is player:
                moves[p] = u
            elif owners[p] is opponent:
                count[p] -= 1
                if count[p]:
                    continue
            attractor.add(p)
            queue.append(p)
    return frozenset(attractor), moves


def _as_attr(game: ObligationGame, player: Owner, targets: frozenset[int],
             sub: frozenset[int]) -> frozenset[int]:
    """States where `player` forces reaching `targets` with probability one,
    for targets in which `player` can keep the play (as the recursion's
    winning regions are).

    The greatest fixpoint of one step: drop the opponent's positive
    attractor of the region it can surely confine away from the targets,
    and repeat inside what is left, where `player` can no longer use the
    dropped configurations.  At the fixpoint the set is closed for the
    opponent and chance, and the targets are positively reachable from
    each member inside it, hence reached almost surely.
    """
    opponent = OPPONENT[player]
    while True:
        refuge = _sure_safe(game, opponent, sub - targets, sub)
        if not refuge:
            return sub
        sub = sub - _pos_attr(game, opponent, refuge, sub)[0]


def _as_strategy(game: ObligationGame,
                 sub: frozenset[int]) -> tuple[frozenset[int], dict[int, int]]:
    """Configurations of `sub` from which Player 0 wins the parity objective
    almost surely, and a positional strategy that does so: one move per
    Player-0 configuration of the region, inside the region.

    Zielonka's recursion on the least priority d with positive attractors
    (Chatterjee, Jurdziński & Henzinger, SODA 2004).  The moves are the
    moves of Player 0's positive attractors (``_pos_attr``), from the
    same search that finds each attractor, composed with the moves of the
    sub-arenas' regions.  Each round either answers, or shrinks `sub`, or
    settles part of it as won, so the recursion only descends on fewer
    priorities.
    """
    settled: dict[int, int] = {}  # moves in the configurations settled as won
    while sub:
        owners, succ = game.owners, game.succ
        d = min(game.priority[v] for v in sub)
        dset = frozenset(v for v in sub if game.priority[v] == d)
        if d % 2 == 0:
            # Player 0 is happy revisiting priority d.  Carve out the part
            # of the remainder the opponent can spoil and retry without it.
            attractor, moves = _pos_attr(game, Owner.PLAYER0, dset, sub)
            rest = sub - attractor
            won, choices = _as_strategy(game, rest)
            spoil = rest - won
            if spoil:
                sub -= _pos_attr(game, Owner.PLAYER1, spoil, sub)[0]
                continue
            # Win the remainder there; elsewhere attract to d, revisiting it
            # infinitely often unless the play settles in the remainder.
            choices.update(moves)
            choices.update((v, next(u for u in succ[v] if u in sub))
                           for v in dset if owners[v] is Owner.PLAYER0)
            return sub, {**choices, **settled}
        # Priority d is bad for Player 0.  If it wins nowhere in the arena
        # without the opponent's positive attractor of d, it wins nowhere.
        # Otherwise everything that almost surely reaches that region is
        # won, and sub is solved again with it settled as won.
        rest = sub - _pos_attr(game, Owner.PLAYER1, dset, sub)[0]
        core, choices = _as_strategy(game, rest)
        if not core:
            break
        reach = _as_attr(game, Owner.PLAYER0, core, sub)
        settled.update(choices)
        settled.update(_pos_attr(game, Owner.PLAYER0, core, reach)[1])
        if reach == sub:
            return sub, settled
        game = settle(game, dict.fromkeys(reach, True))
    return frozenset(), {}


def _certify_as(game: ObligationGame, region: frozenset[int],
                choices: dict[int, int]) -> None:
    """Check on the graph alone that `choices` wins almost surely from
    every configuration of `region` for Player 0.

    The region must be closed under the chosen moves and under every move
    of the opponent and of chance.  Fixing the moves leaves an MDP of the
    opponent, whose plays almost surely end up in an end component; so
    no end component inside the region may have an odd least priority
    (``_winning_end_components`` with parity 1).  A failed check raises
    InternalInvariantError.
    """
    owners, succ = game.owners, game.succ
    for v in region:
        if owners[v] is Owner.PLAYER0 and v not in choices:
            raise InternalInvariantError(f"no almost-sure move at {game.names[v]}")
        moves = (choices[v],) if owners[v] is Owner.PLAYER0 else succ[v]
        if any(u not in region for u in moves):
            raise InternalInvariantError(
                f"the almost-sure region is not closed at {game.names[v]}")
    losing = _winning_end_components(restrict_choice(game, choices), Owner.PLAYER1,
                                     region, 1)
    if losing:
        raise InternalInvariantError(
            f"the almost-sure strategy loses at {game.names[min(losing)]}")


# ---------------------------------------------------------------------------
# Exact single-player (MDP) analysis.  In every MDP here exactly one
# player -- the "controller" -- has free choices; the other player's
# configurations have been restricted to a single successor and behave
# like pure transitions.


def _max_end_components(game: ObligationGame, controller: Owner,
                        sub: frozenset[int]) -> list[frozenset[int]]:
    """Maximal end components of the sub-MDP induced by ``sub``.

    An end component is a set of states in which the controller can stay
    forever with probability one: controller states keep at least one
    edge inside, all other states keep all their branches inside, and
    the set is strongly connected under the kept edges.

    The standard refinement, one SCC at a time.  Every end component
    inside a set lies inside the controller's ``_sure_safe`` trap of the
    set, and inside one SCC of that trap with an edge of its own (a
    single configuration needs a self-loop).  Such SCCs of the trap of
    ``sub`` are the first pending parts.  A pending part that is its
    own trap is a maximal end component; otherwise the SCCs of its trap
    become pending parts.
    """
    everything = frozenset(range(len(game)))

    def sccs(trap: frozenset[int]) -> Iterator[frozenset[int]]:
        order = sorted(trap)
        pos = {v: i for i, v in enumerate(order)}
        for comp in tarjan_scc(len(order),
                               lambda i: (pos[u] for u in game.succ[order[i]] if u in trap)):
            if len(comp) > 1 or order[comp[0]] in game.succ[order[comp[0]]]:
                yield frozenset(order[i] for i in comp)

    components = []
    pending = list(sccs(_sure_safe(game, controller, sub, everything)))
    while pending:
        part = pending.pop()
        trap = _sure_safe(game, controller, part, everything)
        if trap == part:
            components.append(part)
        else:
            pending.extend(sccs(trap))
    return components


def _winning_end_components(game: ObligationGame, controller: Owner,
                            sub: frozenset[int], parity: int) -> frozenset[int]:
    """Union of the end components inside `sub` whose least priority has
    `parity` (0 even, 1 odd): those in a maximal end component of the part
    of priority >= e that contains e, for each e of `parity`.  Each level
    is sought inside the components of the level before that contain no
    such e.
    """
    priority = game.priority
    found: set[int] = set()
    components = [sub]
    for e in sorted({priority[v] for v in sub if priority[v] % 2 == parity}):
        part = frozenset(v for component in components for v in component
                         if priority[v] >= e)
        if not part:
            break
        components = []
        for component in _max_end_components(game, controller, part):
            if any(priority[v] == e for v in component):
                found |= component
            else:
                components.append(component)
    return frozenset(found)


def _mdp_max_reach(game: ObligationGame, controller: Owner,
                   targets: frozenset[int]) -> Values:
    """Max probability for the controller of reaching ``targets``.

    Policy iteration with exact chain evaluation; evaluations are true
    reachability probabilities (zero sets eliminated on the graph), so
    the terminal Bellman-stable policy attains the least fixpoint,
    which is the optimum.
    """
    n = len(game)
    policy = {v: game.succ[v][0] for v in range(n)
              if game.owners[v] is controller and v not in targets}

    def evaluate() -> list[Fraction]:
        rows = []
        for v in range(n):
            if v in targets:
                rows.append(((v, ONE),))
            elif game.owners[v] is Owner.PROBABILISTIC:
                rows.append(game.kernel_row(v))
            elif game.owners[v] is controller:
                rows.append(((policy[v], ONE),))
            else:
                rows.append(((game.succ[v][0], ONE),))
        return reach_probability(rows, targets)

    rounds = 0
    while True:
        rounds += 1
        if rounds > 10000:
            raise InternalInvariantError("reachability policy iteration did not terminate")
        x = evaluate()
        improved = False
        for v, current in policy.items():
            best_u, best = current, x[current]
            for u in game.succ[v]:
                if x[u] > best:
                    best, best_u = x[u], u
            if best_u != current:
                policy[v] = best_u
                improved = True
        if not improved:
            return tuple(x)


def _mdp_max_parity(game: ObligationGame, controller: Owner) -> Values:
    """Max probability for the controller of the min-even parity objective.

    Equals the max probability of reaching the union of end components
    whose minimal priority is even: almost every play eventually stays
    inside some end component, where the controller can realise exactly
    its minimal priority as the liminf.
    """
    n = len(game)
    for v in range(n):
        if game.owners[v] is OPPONENT[controller] and len(game.succ[v]) != 1:
            raise InternalInvariantError(
                "MDP analysis requires the passive player to be fully restricted")
    return _mdp_max_reach(game, controller, _winning_end_components(
        game, controller, frozenset(range(n)), 0))


def _best_response_values(game: ObligationGame, sigma: dict[int, int]) -> Values:
    """Exact value of fixing Player 0 to ``sigma``: Player 1 minimises.

    The minimum of the parity probability is one minus the maximum of
    the complemented objective in the resulting MDP, which is Player 0's
    in its dual game (``dual_game``).
    """
    mx = _mdp_max_parity(dual_game(restrict_choice(game, sigma)), Owner.PLAYER0)
    return tuple(ONE - x for x in mx)


# ---------------------------------------------------------------------------
# Two-player solve: settle the almost-sure regions, then improve a strategy
# on each side of the residual game until the two bounds meet.


def _player_states(game: ObligationGame, player: Owner) -> list[int]:
    return [v for v in range(len(game)) if game.owners[v] is player]


def _strategies(game: ObligationGame, player: Owner) -> Iterator[dict[int, int]]:
    """Every pure memoryless strategy of `player`, in lexicographic order."""
    states = _player_states(game, player)
    for combo in itertools.product(*(game.succ[v] for v in states)):
        yield dict(zip(states, combo))


def _rise(x: Values, y: Values) -> Values:
    """`y`, the values after an improvement step from `x`, checked to rise."""
    if y == x or any(b < a for a, b in zip(x, y)):
        raise InternalInvariantError("an improvement step did not raise the values")
    return y


def _climb(game: ObligationGame, sigma: dict[int, int]) -> Values:
    """Improve Player 0's strategy `sigma` in place by switches to successors
    of strictly higher value, and return its best-response values.

    Against any opponent the old values are then a submartingale of the
    play, constant on each bottom component, where no switch can lie; so
    the values rise, strictly at the switches (``_rise``).
    """
    x = _best_response_values(game, sigma)
    while True:
        best = {v: max(game.succ[v], key=x.__getitem__) for v in sigma}
        switch = {v: u for v, u in best.items() if x[u] > x[sigma[v]]}
        if not switch:
            return x
        sigma.update(switch)
        x = _rise(x, _best_response_values(game, sigma))


def _class_step(game: ObligationGame, x: Values, sigma: dict[int, int]) -> bool:
    """Switch `sigma`, whose best-response values are `x`, to the moves of
    Player 0's almost-sure region in each class C = {v : x[v] = r} with
    r < 1, lowest first, with the chance configurations leaving C settled
    as lost (as won, they pose a condition `sigma` already meets); return
    whether it switched.  From there the opponent must leave C upward or
    lose, so the values rise strictly; when no class switches, `sigma` is
    optimal (Chatterjee & Henzinger, "Strategy improvement and randomized
    subexponential algorithms for stochastic parity games", STACS 2006).
    """
    switched = False
    _, rank, classes, _ = _player_view(game, x, 0)
    for cls in classes:
        if x[cls[0]] != ONE:
            _, choices = _as_strategy(*_class_game(game, rank, cls, boundary_won=False))
            switched |= any(sigma[v] != u for v, u in choices.items())
            sigma.update(choices)
    return switched


def _residual(game: ObligationGame, won: frozenset[int],
              lost: frozenset[int]) -> tuple[ObligationGame, list[int]]:
    """The game left by the two almost-sure regions, and the configuration
    of it that stands for each configuration of `game`.

    The configurations outside both regions come first, in index order,
    then one absorbing won sink (priority 0) and one absorbing lost sink
    (priority 1), which stand for the regions: every edge and kernel
    entry into `won` or `lost` goes to its sink.  When both regions are
    certified, composing strategies shows that the residual's values are
    the game's: a player wins a region almost surely from anywhere in
    it, whatever happened before.
    """
    keep = [v for v in range(len(game)) if v not in won and v not in lost]
    index = [len(keep) if v in won else len(keep) + 1 for v in range(len(game))]
    for i, v in enumerate(keep):
        index[v] = i
    rows = []
    for v in keep:
        if game.owners[v] is Owner.PROBABILISTIC:
            moves = [(index[u], p) for u, p in game.kernel_row(v)]
        else:
            moves = [index[u] for u in game.succ[v]]
        rows.append((game.names[v], game.owners[v], game.priority[v], None, moves))
    rows.append(("won", Owner.PROBABILISTIC, 0, None, [(len(keep), ONE)]))
    rows.append(("lost", Owner.PROBABILISTIC, 1, None, [(len(keep) + 1, ONE)]))
    return game_from_rows(rows), index


def _closed_form(game: ObligationGame) -> Optional[Values]:
    """Exact values of a chain or of a game in which one player owns no
    configuration, or None for a genuine two-player game."""
    if game.is_chain():
        return tuple(parity_measure(game.kernel, game.priority))
    if not _player_states(game, Owner.PLAYER1):
        return _mdp_max_parity(game, Owner.PLAYER0)
    if not _player_states(game, Owner.PLAYER0):
        return _best_response_values(game, {})
    return None


def _two_sided(game: ObligationGame) -> Values:
    """Exact values from strategy improvement on `game` and on its dual,
    proven by determinacy once their bounds sum to one everywhere.  Only
    while a gap is left do the sides take class steps and climb again; a
    gap that neither side can step past raises InternalInvariantError."""
    sides = (game, dual_game(game))
    sigmas = [{v: g.succ[v][0] for v in _player_states(g, Owner.PLAYER0)} for g in sides]
    bounds = [_climb(g, sigma) for g, sigma in zip(sides, sigmas)]
    while any(a + b != ONE for a, b in zip(*bounds)):
        stepped = [_class_step(g, x, sigma) for g, x, sigma in zip(sides, bounds, sigmas)]
        if not any(stepped):
            raise InternalInvariantError("strategy improvement left a gap")
        bounds = [_rise(x, _climb(g, sigma)) if step else x
                  for g, x, sigma, step in zip(sides, bounds, sigmas, stepped)]
    return bounds[0]


def solve_values(game: ObligationGame) -> Values:
    """Exact Player-0 values of an obligation-free stochastic parity game.

    Answers are only returned once proven: either the chain / MDP
    special cases (exact by construction), or a qualitative certificate
    for 0 and 1, or two-sided bounds that sum to one (determinacy).  The
    two players' almost-sure regions are computed first and both
    strategies must pass ``_certify_as``; the values are 1 and 0 there.
    Player 0's region is sought outside Player 1's positive attractor of
    the lost sinks (absorbing, odd priority), and Player 1's outside
    Player 0's positive attractor of Player 0's region: by Zielonka's
    dominion argument neither player wins almost surely where the other
    reaches its sure win with positive probability, and each such
    complement is closed for chance and the opponent, so the recursion
    finds the same regions on it as on the whole game.
    The rest is solved on the residual game (``_residual``), where the
    regions are two absorbing sinks of values 1 and 0: by the special
    cases where they apply, else by ``_two_sided``.  A failed check
    raises InternalInvariantError; nothing unproven is ever returned.
    """
    _require_parity_game(game)
    vals = _closed_form(game)
    if vals is not None:
        return vals
    n = len(game)
    full = frozenset(range(n))
    dual = dual_game(game)
    sinks = [v for v in full if game.succ[v] == (v,) and game.priority[v] % 2]
    won, sigma = _as_strategy(game, full - _pos_attr(game, Owner.PLAYER1, sinks, full)[0])
    lost, pi = _as_strategy(dual, full - _pos_attr(game, Owner.PLAYER0, won, full)[0])
    _certify_as(game, won, sigma)
    _certify_as(dual, lost, pi)
    if won | lost == full:
        return tuple(ONE if v in won else ZERO for v in range(n))
    residual, index = _residual(game, won, lost)
    vals = _closed_form(residual)
    if vals is None:
        vals = _two_sided(residual)
    return tuple(vals[i] for i in index)


def _class_game(game: ObligationGame, rank: Sequence[int], cls: Sequence[int],
                boundary_won: bool = True) -> tuple[ObligationGame, frozenset[int]]:
    """The game of the value class `cls` of `rank` (``_player_view``), and
    its arena: the class and its unsettled members' successors.  Each
    chance member with a successor outside the class is settled as
    `boundary_won`: the play leaves the class from there with positive
    probability, upward and downward, and keeps its value on average
    (Chatterjee, Jurdziński & Henzinger, SODA 2004).  The other members'
    successors outside the class are settled, as won above it and as lost
    below; nothing else is, since ``_as_strategy`` and ``_certify_as`` read
    nothing outside the arena they are given."""
    owners, succ = game.owners, game.succ
    k = rank[cls[0]]
    settled: dict[int, bool] = {}
    for v in cls:
        for u in succ[v]:
            if rank[u] != k:
                if owners[v] is Owner.PROBABILISTIC:
                    settled[v] = boundary_won
                    break
                settled[u] = rank[u] > k
    class_game = settle(game, settled)
    members = frozenset(cls)
    return class_game, members.union(*(class_game.succ[v] for v in members))


def _player_view(game: ObligationGame, values: Values, player: int
                 ) -> tuple[ObligationGame, tuple[int, ...], list[list[int]], range]:
    """`game` with `player` as Player 0 (the dual game for Player 1); each
    configuration's value class, numbered from `player`'s lowest value up;
    each class's members; and the classes where `player`'s value is positive."""
    if player:
        game = dual_game(game)
    # Values are told apart by (numerator, denominator), which hashes far
    # faster than a Fraction.
    members: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for v, x in enumerate(values):
        members[x.numerator, x.denominator].append(v)
    classes = sorted(members.values(), key=lambda cls: values[cls[0]], reverse=bool(player))
    number = {v: k for k, cls in enumerate(classes) for v in cls}
    rank = tuple(number[v] for v in range(len(values)))
    lost = bool(classes) and values[classes[0][0]] == (ZERO, ONE)[player]
    return game, rank, classes, range(lost, len(classes))


def _keeps_values(game: ObligationGame, rank: tuple[int, ...],
                  cls: Sequence[int]) -> Optional[dict[int, int]]:
    """Player 0's moves winning the class game of `cls` almost surely from
    all of the class, in `game`, a restriction of Player 0's moves in a
    game whose value classes are `rank` (``_player_view``); None if the
    class game is not won so.

    The restriction keeps the values exactly when such moves exist for
    every class of positive value.  If they do, the values of the play's
    classes form a submartingale against any opponent, which settles in
    one class, and in a class of positive value the parity objective is
    then won almost surely; conversely an optimal strategy of a
    restriction that keeps the values wins each class game so.  A class
    game depends only on the moves inside its class, and it is built and
    solved on the class and its members' successors (``_class_game``);
    the moves returned lie in the class.  No linear system is solved.
    """
    won, moves = _as_strategy(*_class_game(game, rank, cls))
    return moves if won.issuperset(cls) else None


def _canonical_strategy(game: ObligationGame, values: Values,
                        player: int) -> PureMemorylessStrategy:
    """Lexicographically first optimal strategy for `player`, certified on
    the graph.

    Fixes one owned configuration v at a time, in index order, to its
    smallest successor that keeps the values on top of the choices fixed
    so far; the result equals the first optimal strategy in the
    enumeration order used by the oracle.  The choices so far keep the
    values, so a keep test (``_keeps_values``) concerns v's class alone.
    Only successors of v's value can keep them, and as optimal pure
    memoryless strategies exist in every restriction that keeps them, one
    of those does: when all earlier ones fail, the last is taken
    untested.  Where `player` loses almost surely (value 0 for Player 0,
    1 for Player 1) any of them keeps the values, since the opponent's
    optimal strategy wins from there whatever the player does, so the
    first is taken untested.

    Most tests are answered by a strategy already in hand.  Each class k
    of positive value may hold moves that win its class game almost
    surely from all of k in the game restricted so far.  At k's first
    choice with more than one candidate the class game of the unrestricted
    game is solved, and its moves are held if they win all of k and agree
    with the choices of k fixed before; after that each passing test
    leaves its own moves.  Held moves still win after every choice that
    agrees with them, so at v the candidate they pick keeps the values,
    and it is taken untested once the candidates before it have failed
    their tests.  A choice that disagrees with them, which exact values
    never cause, leaves k with no held moves until its next passing test.

    The finished strategy is certified: for each class of positive value
    r for `player`, it must win that class game almost surely from every
    configuration of its arena of value at least r (``_certify_as``),
    which proves by the argument of ``_keeps_values`` that it secures the
    values.  A failure raises InternalInvariantError.
    """
    seen, rank, classes, positive = _player_view(game, values, player)
    held: dict[int, Optional[dict[int, int]]] = {}
    choices: dict[int, int] = {}
    for v in _player_states(game, (Owner.PLAYER0, Owner.PLAYER1)[player]):
        k = rank[v]
        same = [u for u in game.succ[v] if rank[u] == k]
        if not same:
            raise InternalInvariantError(f"no choice at {game.names[v]} keeps the values")
        u = same[0]
        if k in positive and len(same) > 1:
            if k not in held:
                won, moves = _as_strategy(*_class_game(seen, rank, classes[k]))
                agrees = won.issuperset(classes[k]) and all(
                    moves.get(w) == choices[w] for w in classes[k] if w in choices)
                held[k] = moves if agrees else None
            for u in same[:-1]:
                if held[k] is not None and held[k].get(v) == u:
                    break
                moves = _keeps_values(restrict_choice(seen, {**choices, v: u}), rank, classes[k])
                if moves is not None:
                    held[k] = moves
                    break
            else:
                u = same[-1]
        choices[v] = u
        if held.get(k) is not None and held[k].get(v) != u:
            held[k] = None
    for k in positive:
        class_game, arena = _class_game(seen, rank, classes[k])
        _certify_as(class_game, frozenset(v for v in arena if rank[v] >= k),
                    {v: choices[v] for v in classes[k] if v in choices})
    return PureMemorylessStrategy.from_dict(player, choices)


def solve_parity(game: ObligationGame, *, witnesses: bool = True) -> ValueVector:
    """Fast exact solver; bit-identical to the oracle wherever both run.

    The values come from ``solve_values``; with `witnesses`, each player's
    canonical optimal strategy is then read off them on the graph and
    certified there (``_canonical_strategy``), without a further solve.
    """
    return value_vector(game, solve_values(game), witnesses=witnesses)


def value_vector(game: ObligationGame, values: Values, *,
                 witnesses: bool = True) -> ValueVector:
    """``values``, the exact values of `game` found elsewhere, with each
    player's certified canonical strategy if `witnesses`, as ``solve_parity``
    returns them."""
    sigma = pi = None
    if witnesses:
        sigma = _canonical_strategy(game, values, 0)
        pi = _canonical_strategy(game, values, 1)
    return ValueVector(values=values, sigma=sigma, pi=pi)


# ---------------------------------------------------------------------------
# Brute-force oracle


def oracle_pair_count(game: ObligationGame) -> int:
    """The number of pure memoryless strategy pairs: the product of the
    owned configurations' out-degrees."""
    return math.prod(len(game.succ[v]) for v in range(len(game))
                     if game.owners[v] is not Owner.PROBABILISTIC)


def solve_parity_oracle(game: ObligationGame, *,
                        budgets: Budgets = DEFAULT_BUDGETS,
                        witnesses: bool = True) -> ValueVector:
    """Normative brute-force semantics: full strategy-pair enumeration.

    value(v) = max over pure memoryless sigma of min over pure
    memoryless pi of the parity measure of the induced chain at v.
    Witnesses are the lexicographically first strategies achieving the
    value vector.  Raises OracleInfeasibleError beyond the pair budget.
    """
    _require_parity_game(game)
    pairs = oracle_pair_count(game)
    if pairs > budgets.max_strategy_pairs:
        raise OracleInfeasibleError(
            f"oracle infeasible at this size: {pairs} strategy pairs "
            f"exceed the budget of {budgets.max_strategy_pairs}")
    n = len(game)
    sigmas = [PureMemorylessStrategy.from_dict(0, s) for s in _strategies(game, Owner.PLAYER0)]
    pis = [PureMemorylessStrategy.from_dict(1, s) for s in _strategies(game, Owner.PLAYER1)]
    table: list[list[Values]] = []
    for sg in sigmas:
        row = []
        for pg in pis:
            chain = induce_chain(game, sg, pg)
            row.append(tuple(parity_measure(chain, game.priority)))
        table.append(row)
    response = [tuple(min(row[j][v] for j in range(len(pis))) for v in range(n))
                for row in table]
    values = tuple(max(response[i][v] for i in range(len(sigmas))) for v in range(n))
    sigma = pi = None
    if witnesses:
        sigma = next(sg for i, sg in enumerate(sigmas) if response[i] == values)
        counter = [tuple(max(table[i][j][v] for i in range(len(sigmas))) for v in range(n))
                   for j in range(len(pis))]
        pi = next(pg for j, pg in enumerate(pis) if counter[j] == values)
    return ValueVector(values=values, sigma=sigma, pi=pi)


# ---------------------------------------------------------------------------
# Threshold decisions


@dataclass(frozen=True)
class ThresholdDecision:
    verdict: bool
    value: Fraction
    certificate: PureMemorylessStrategy
    certificate_player: int


def decide_parity_threshold(game: ObligationGame, config: int, cmp: str,
                            threshold: Fraction) -> ThresholdDecision:
    """Decide value(config) cmp threshold on exact rationals.

    The certificate is the optimal strategy of whichever player the
    verdict favours.  It is re-verified by one best response, the exact
    value of fixing it (on the dual game for Player 1), which must secure
    the value at `config` against every opposing strategy.
    """
    if not 0 <= config < len(game):
        raise InputFormatError(
            f"configuration index {config} is out of range for {len(game)} configurations")
    query = Obligation(cmp, threshold)  # validates the comparator and the threshold
    values = solve_values(game)
    value = values[config]
    verdict = query.holds(value)
    player = 0 if verdict else 1
    certificate = _canonical_strategy(game, values, player)
    if player == 0:
        sound = _best_response_values(game, certificate.as_dict())[config] >= value
    else:
        sound = ONE - _best_response_values(dual_game(game), certificate.as_dict())[config] <= value
    if not sound:
        raise InternalInvariantError(
            f"witness strategy fails re-verification at {game.names[config]}")
    return ThresholdDecision(verdict=verdict, value=value,
                             certificate=certificate, certificate_player=player)
