"""Checks made apart from the solver.

Every function here returns a list of problems (empty when the output is
correct).  They read only the plain fields of the program's data types
(``names``, ``owners``, ``succ``, ``kernel``, ``priority``,
``obligation``, ``values``) and recompute what they compare against in
exact ``Fraction`` arithmetic with the benchmark's own graph code.  The
one program function used is ``solve_parity_oracle``, the brute-force
semantics that the solver is defined against; it is only called on
reduced games small enough for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

P0, P1, PROB = "player0", "player1", "probabilistic"


def owner_of(game, v: int) -> str:
    return game.owners[v].value


def holds(cmp: str, value: Fraction, threshold: Fraction) -> bool:
    if cmp == ">=":
        return value >= threshold
    if cmp == ">":
        return value > threshold
    raise ValueError(f"unknown comparator {cmp!r}")


def dual_threshold(cmp: str, threshold: Fraction) -> tuple[str, Fraction]:
    """``>= r`` flips to ``> 1-r`` and ``> r`` to ``>= 1-r``."""
    return (">" if cmp == ">=" else ">="), ONE - threshold


def fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Values


def check_range(values: Sequence[Fraction], n: int, what: str) -> list[str]:
    if len(values) != n:
        return [f"{what}: {len(values)} values for {n} configurations"]
    bad = [v for v, x in enumerate(values)
           if not isinstance(x, Fraction) or not (ZERO <= x <= ONE)]
    return [f"{what}: value outside [0,1] or not exact at index {bad[0]}"] if bad else []


def check_bellman(game, values: Sequence[Fraction], *, skip: Iterable[int] = (),
                  what: str = "values") -> list[str]:
    """Local consistency: max at Player 0, min at Player 1, mean at random."""
    skipped = set(skip)
    for v in range(len(game.names)):
        if v in skipped:
            continue
        owner = owner_of(game, v)
        succ = game.succ[v]
        if owner == P0:
            expected = max(values[u] for u in succ)
        elif owner == P1:
            expected = min(values[u] for u in succ)
        else:
            expected = sum((p * values[t] for t, p in game.kernel[v]), ZERO)
        if values[v] != expected:
            return [f"{what}: Bellman mismatch at {game.names[v]} "
                    f"({owner}): {fmt(values[v])} != {fmt(expected)}"]
    return []


def check_determinacy(primal: Sequence[Fraction], dual: Sequence[Fraction],
                      names: Sequence[str]) -> list[str]:
    for v, (a, b) in enumerate(zip(primal, dual)):
        if a + b != ONE:
            return [f"determinacy: {fmt(a)} + {fmt(b)} != 1 at {names[v]}"]
    if len(primal) != len(dual):
        return ["determinacy: primal and dual value vectors differ in length"]
    return []


# ---------------------------------------------------------------------------
# Certificates


def _reaches(adj: dict[int, list[int]], source: int, target: int) -> bool:
    seen = {source}
    stack = [source]
    while stack:
        x = stack.pop()
        if x == target:
            return True
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def has_odd_min_cycle(edges: Sequence[tuple[int, int, int]]) -> bool:
    """Is there a cycle whose minimal label is odd?

    An edge (v, u, i) with odd i closes such a cycle exactly when v is
    reachable from u using only edges labelled at least i.
    """
    for v, u, i in edges:
        if i % 2 == 0:
            continue
        adj: dict[int, list[int]] = {}
        for a, b, j in edges:
            if j >= i:
                adj.setdefault(a, []).append(b)
        if _reaches(adj, u, v):
            return True
    return False


def check_certificate(game, entries) -> list[str]:
    """Conditions 1 and 2 of a dependency: no dangling reference, no odd cycle."""
    obligations = {v for v, ob in enumerate(game.obligation) if ob is not None}
    rows = dict(entries)
    if set(rows) != obligations:
        return ["certificate: rows do not match the obligation configurations"]
    defined = {v for v, row in rows.items() if row is not None}
    edges = []
    for v, row in rows.items():
        for u, m in row or ():
            if u not in obligations:
                return [f"certificate: {game.names[v]} refers to a non-obligation"]
            if u not in defined:
                return [f"certificate: {game.names[v]} refers to unmet {game.names[u]}"]
            edges.append((v, u, m))
    if has_odd_min_cycle(edges):
        return ["certificate: reference graph has a cycle with odd minimal label"]
    return []


# ---------------------------------------------------------------------------
# Reduced games and the oracle


def reduced_structure(game, fulfilled: frozenset[int]):
    """The win/lose-sink game, built here rather than taken from the report."""
    from obg.model import ObligationGame, Owner  # plain data type

    owners = list(game.owners)
    succ = list(game.succ)
    kernel = list(game.kernel)
    priority = list(game.priority)
    for v, ob in enumerate(game.obligation):
        if ob is None:
            continue
        owners[v] = Owner.PROBABILISTIC
        succ[v] = (v,)
        kernel[v] = ((v, ONE),)
        priority[v] = 0 if v in fulfilled else 1
    return ObligationGame(names=game.names, owners=tuple(owners), succ=tuple(succ),
                          kernel=tuple(kernel), priority=tuple(priority),
                          obligation=tuple(None for _ in game.names))


def pair_count(game) -> int:
    count = 1
    for v in range(len(game.names)):
        if owner_of(game, v) != PROB:
            count *= len(game.succ[v])
    return count


class OracleAllowance:
    """Caps the brute-force cross-checks of one run to a total pair count."""

    def __init__(self, per_game: int, total: int) -> None:
        self.per_game = per_game
        self.left = total
        self.games = 0

    def take(self, pairs: int) -> bool:
        if pairs > self.per_game or pairs > self.left:
            return False
        self.left -= pairs
        self.games += 1
        return True


def check_oracle(reduced, values, sigma, pi, allowance: Optional[OracleAllowance],
                 what: str) -> list[str]:
    if allowance is None or not allowance.take(pair_count(reduced)):
        return []
    from obg import Budgets, solve_parity_oracle

    witnesses = sigma is not None
    oracle = solve_parity_oracle(
        reduced, budgets=Budgets(max_strategy_pairs=allowance.per_game),
        witnesses=witnesses)
    if tuple(oracle.values) != tuple(values):
        return [f"{what}: values differ from solve_parity_oracle"]
    if witnesses and (oracle.sigma != sigma or oracle.pi != pi):
        return [f"{what}: witnesses differ from solve_parity_oracle"]
    return []


def check_witnesses(reduced, values, sigma, pi, what: str) -> list[str]:
    """Every chosen edge keeps the value, at every owned configuration."""
    for player, strategy, owner in ((0, sigma, P0), (1, pi, P1)):
        owned = {v for v in range(len(reduced.names)) if owner_of(reduced, v) == owner}
        choices = dict(strategy.choices)
        if set(choices) != owned:
            return [f"{what}: player {player} witness does not cover its configurations"]
        for v, u in choices.items():
            if u not in reduced.succ[v]:
                return [f"{what}: witness picks a non-edge at {reduced.names[v]}"]
            if values[u] != values[v]:
                return [f"{what}: witness edge {reduced.names[v]}->{reduced.names[u]} "
                        f"changes the value"]
    return []


# ---------------------------------------------------------------------------
# Obligation reports


def check_report(game, dependency, report, *, allowance: Optional[OracleAllowance] = None,
                 what: str = "report") -> list[str]:
    """All solver-independent properties of one obligation-game solve."""
    n = len(game.names)
    values, pre = report.values, report.pre_values
    problems = check_range(values, n, what) + check_range(pre, n, what + " pre-values")
    if problems:
        return problems
    defined = {v for v, row in dependency.entries if row is not None}
    if set(report.fulfilled) != defined:
        return [f"{what}: fulfilled set differs from the certificate's defined rows"]
    for v, ob in enumerate(game.obligation):
        if ob is None:
            if pre[v] != values[v]:
                return [f"{what}: pre-value differs from value at {game.names[v]}"]
            continue
        if values[v] not in (ZERO, ONE):
            return [f"{what}: obligation {game.names[v]} has value {fmt(values[v])}"]
        if (values[v] == ONE) != (v in defined):
            return [f"{what}: value of {game.names[v]} disagrees with the certificate"]
        if holds(ob.cmp, pre[v], ob.threshold) != (v in defined):
            return [f"{what}: threshold on the pre-value of {game.names[v]} "
                    f"does not reproduce its value"]
    obligations = [v for v, ob in enumerate(game.obligation) if ob is not None]
    problems = check_bellman(game, values, skip=obligations, what=what)
    problems += check_certificate(game, dependency.entries)
    if problems:
        return problems
    reduced = reduced_structure(game, frozenset(defined))
    solution = report.reduced_solution
    if tuple(solution.values) != tuple(values):
        return [f"{what}: reduced-game values differ from the reported values"]
    if solution.sigma is not None:
        problems += check_witnesses(reduced, values, solution.sigma, solution.pi, what)
    problems += check_oracle(reduced, values, solution.sigma, solution.pi,
                             allowance, what)
    return problems


def dual_structure(game):
    """Players swapped, priorities shifted by one, obligations flipped."""
    from obg.model import ObligationGame, Obligation, Owner

    swap = {Owner.PLAYER0: Owner.PLAYER1, Owner.PLAYER1: Owner.PLAYER0,
            Owner.PROBABILISTIC: Owner.PROBABILISTIC}
    obligations = []
    for ob in game.obligation:
        if ob is None:
            obligations.append(None)
        else:
            obligations.append(Obligation(*dual_threshold(ob.cmp, ob.threshold)))
    return ObligationGame(names=game.names,
                          owners=tuple(swap[o] for o in game.owners),
                          succ=game.succ, kernel=game.kernel,
                          priority=tuple(p + 1 for p in game.priority),
                          obligation=tuple(obligations))


# ---------------------------------------------------------------------------
# Gambler's ruin


def ruin_probability(up: Sequence[Fraction], start: int) -> Fraction:
    """Probability of reaching the top before the bottom of a birth-death chain.

    Locations 0..L-1 with 0 and L-1 absorbing; interior location k moves
    up with probability ``up[k]`` and down otherwise.  The classical
    closed form is sum_{j<start} rho_j / sum_{j<L-1} rho_j with
    rho_0 = 1 and rho_j = prod_{k=1..j} (1-up[k])/up[k].
    """
    length = len(up)
    rho = [ONE]
    for k in range(1, length - 1):
        rho.append(rho[-1] * (ONE - up[k]) / up[k])
    return sum(rho[:start], ZERO) / sum(rho, ZERO)


# ---------------------------------------------------------------------------
# CLI output


def check_cli_values(printed: dict, names: Sequence[str], values: Sequence[Fraction],
                     what: str) -> list[str]:
    expected = {name: fmt(x) for name, x in zip(names, values)}
    if printed != expected:
        return [f"{what}: printed values differ from the library result"]
    return []
