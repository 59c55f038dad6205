"""Exact quantitative analysis of finite Markov chains.

The kernels take transition rows, ``rows[v]`` listing ``(target,
probability)`` pairs: ``mc.succ`` of a chain, ``game.kernel`` of a fully
probabilistic game, or the rows of ``parity.induce_chain``.
Reachability probabilities are computed by identifying the sure-zero
set graph-theoretically (backward reachability) and solving the
remaining linear system exactly.  This module scales each row and its
right-hand side to integers, by the lcm of the row's probability
denominators, and passes the system to
:func:`linalg.solve_linear_system`, which takes integer rows only; the
zero-set elimination guarantees a nonsingular system.  The parity measure is the
probability of reaching the union of accepting bottom SCCs (minimal
priority even).  The bottom-SCC decomposition, the parity measure and
the Monte-Carlo estimate take the priorities as a sequence indexed by
location.

A chain with obligations is solved as a game, not here:
``model.embed_chain_as_game`` makes each of its locations a chance
configuration, and ``obligations.find_best_dependency`` solves that game.

Monte-Carlo estimation is a statistical cross-check only and never
feeds solver decisions; it is the one place floats are allowed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import InputFormatError
from .graphs import reachable_from, tarjan_scc
from .model import ONE, ZERO, LabeledMarkovChain

Rows = Sequence[Sequence[tuple[int, Fraction]]]

# z for a two-sided 99% Wilson interval
Z99 = 2.5758293035489004
# Steps after which a Monte-Carlo run still outside a bottom SCC fails.
HORIZON = 10000


@dataclass(frozen=True)
class BsccDecomposition:
    """Bottom SCCs, the transient remainder, and acceptance.

    ``accepting[i]`` is True iff the minimal priority inside
    ``components[i]`` is even.
    """

    components: tuple[frozenset[int], ...]
    transient: frozenset[int]
    accepting: tuple[bool, ...]


def bscc_decompose(rows: Rows, priority: Sequence[int]) -> BsccDecomposition:
    """Exact SCC condensation; a component is bottom iff no edge leaves it."""
    n = len(rows)
    if len(priority) != n:
        raise InputFormatError("priority map must cover every location")
    comps = tarjan_scc(n, lambda v: (t for t, _ in rows[v]))
    bsccs = []
    for comp in comps:
        members = frozenset(comp)
        bottom = all(t in members for v in comp for t, _ in rows[v])
        if bottom:
            bsccs.append(members)
    bsccs.sort(key=min)
    covered = frozenset().union(*bsccs) if bsccs else frozenset()
    transient = frozenset(range(n)) - covered
    accepting = tuple(min(priority[v] for v in comp) % 2 == 0 for comp in bsccs)
    return BsccDecomposition(tuple(bsccs), transient, accepting)


def _can_reach(rows: Rows, target: frozenset[int], avoid: frozenset[int]) -> set[int]:
    """Locations that reach `target` without passing through `avoid`:
    backward reachability through the non-avoid locations."""
    preds: list[list[int]] = [[] for _ in rows]
    for v, row in enumerate(rows):
        if v not in avoid:
            for t, _ in row:
                preds[t].append(v)
    return reachable_from(target, lambda v: preds[v])


def reach_probability(rows: Rows,
                      target: frozenset[int] | set[int],
                      avoid: frozenset[int] | set[int] = frozenset()) -> list[Fraction]:
    """Probability, from each location, of reaching target before touching avoid."""
    target = frozenset(target)
    avoid = frozenset(avoid)
    if target & avoid:
        raise InputFormatError("target and avoid sets must be disjoint")
    # Everything that cannot reach the target is sure-zero.
    can_reach = _can_reach(rows, target, avoid)
    values = [ZERO] * len(rows)
    for t in target:
        values[t] = ONE
    unknown = sorted(can_reach - target)
    if not unknown:
        return values
    pos = {v: i for i, v in enumerate(unknown)}
    system = []
    rhs = []
    for i, v in enumerate(unknown):
        # x_v - sum_t p_t x_t = sum_{t in target} p_t, times the lcm of
        # the row's denominators.
        scale = math.lcm(*(p.denominator for _, p in rows[v]))
        coefficients = {i: scale}
        constant = 0
        for t, p in rows[v]:
            weight = p.numerator * (scale // p.denominator)
            if t in pos:
                j = pos[t]
                coefficients[j] = coefficients.get(j, 0) - weight
            elif t in target:
                constant += weight
            # avoid / sure-zero successors contribute nothing
        system.append(tuple(sorted((c, x) for c, x in coefficients.items() if x)))
        rhs.append(constant)
    solution = linalg.solve_linear_system(system, rhs)
    for v, x in zip(unknown, solution):
        values[v] = x
    return values


def parity_measure(rows: Rows, priority: Sequence[int]) -> list[Fraction]:
    """Measure of the min-even parity objective from each location."""
    dec = bscc_decompose(rows, priority)
    target: set[int] = set()
    for comp, acc in zip(dec.components, dec.accepting):
        if acc:
            target |= comp
    return reach_probability(rows, frozenset(target))


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check


@dataclass(frozen=True)
class McEstimate:
    successes: int
    samples: int
    estimate: float
    wilson_low: float
    wilson_high: float
    seed: int

    def contains(self, exact: Fraction) -> bool:
        return self.wilson_low <= float(exact) <= self.wilson_high


def wilson_interval(successes: int, samples: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if samples <= 0:
        raise InputFormatError("samples must be positive")
    p_hat = successes / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    centre = (p_hat + z2 / (2 * samples)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / samples + z2 / (4 * samples * samples)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def monte_carlo_estimate(mc: LabeledMarkovChain,
                         priority: Sequence[int],
                         samples: int,
                         seed: int = 0) -> McEstimate:
    """Seeded simulation estimate of the min-even parity objective under
    ``priority``, from the initial location, with a 99% Wilson interval.

    A run is classified as soon as the walk enters a bottom SCC
    (entering one decides the parity class almost surely); runs still
    undecided after ``HORIZON`` steps count as failures.  Never used
    inside solver decisions.
    """
    if samples < 1:
        raise InputFormatError("samples must be >= 1")
    rng = random.Random(seed)
    cumulative = []
    for row in mc.succ:
        acc = 0.0
        thresholds = []
        for t, p in row:
            acc += float(p)
            thresholds.append((acc, t))
        cumulative.append(thresholds)

    dec = bscc_decompose(mc.succ, priority)
    verdict_of: dict[int, bool] = {}
    for comp, acc in zip(dec.components, dec.accepting):
        for v in comp:
            verdict_of[v] = acc

    def run() -> bool:
        v = mc.initial
        for _ in range(HORIZON):
            if v in verdict_of:
                return verdict_of[v]
            v = _sample(cumulative[v], rng)
        return False

    successes = sum(1 for _ in range(samples) if run())
    low, high = wilson_interval(successes, samples)
    return McEstimate(successes=successes, samples=samples,
                      estimate=successes / samples,
                      wilson_low=low, wilson_high=high, seed=seed)


def _sample(thresholds: list[tuple[float, int]], rng: random.Random) -> int:
    x = rng.random()
    for acc, t in thresholds:
        if x < acc:
            return t
    return thresholds[-1][1]
