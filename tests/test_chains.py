import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obg import (InputFormatError, bscc_decompose, build_gamma_game,
                 embed_chain_as_game, make_chain, monte_carlo_estimate,
                 parity_measure, reach_probability)
from obg.generators import random_chain
from obg.io_formats import ChainDocument, parse_chain_document, serialize_chain_document
from obg.model import ONE, ZERO
from obg.obligations import reachable_pairs

from conftest import load_chain_doc, load_game
from test_linalg import dense, dense_solve

HALF = F(1, 2)


def seeded_chain(seed: int):
    return random_chain(random.Random(seed))


def test_single_absorbing_location():
    chain = make_chain(["s"], {"s": {"s": ONE}}, initial="s")
    dec = bscc_decompose(chain.succ, [1])
    assert dec.components == (frozenset({0}),)
    assert dec.transient == frozenset()
    assert dec.accepting == (False,)


def test_two_sinks_and_transient_root():
    chain = make_chain(["r", "a", "b"],
                       {"r": {"a": HALF, "b": HALF}, "a": {"a": ONE}, "b": {"b": ONE}},
                       initial="r")
    dec = bscc_decompose(chain.succ, [1, 0, 1])
    assert dec.components == (frozenset({1}), frozenset({2}))
    assert dec.transient == frozenset({0})
    assert dec.accepting == (True, False)


def brute_force_bsccs(rows):
    """Independent oracle: a set is a bottom SCC iff it is a mutually
    reachable class with no edge leaving it."""
    n = len(rows)
    reach = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            for t, _ in rows[v]:
                new = reach[v] | reach[t]
                if new != reach[v]:
                    reach[v] = new
                    changed = True
    sccs = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        comp = {u for u in reach[v] if v in reach[u]}
        if v in comp:
            seen |= comp
            sccs.append(frozenset(comp))
    return {c for c in sccs
            if all(t in c for v in c for t, _ in rows[v])}


def test_fig6_chain_bsccs_match_brute_force():
    game = load_game("fig6.game.json")
    dec = bscc_decompose(game.kernel, game.priority)
    assert set(dec.components) == brute_force_bsccs(game.kernel)
    # obligations erased, the whole recurrence class is one bottom SCC
    assert dec.components == (frozenset(range(6)),)
    assert dec.accepting == (min(game.priority) % 2 == 0,)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_bsccs_match_brute_force_on_random_chains(seed):
    chain, priority = seeded_chain(seed)
    dec = bscc_decompose(chain.succ, priority)
    assert set(dec.components) == brute_force_bsccs(chain.succ)
    assert dec.accepting == tuple(min(priority[v] for v in c) % 2 == 0
                                  for c in dec.components)


def test_reach_probability_trivial_laws():
    chain = make_chain(["s", "t", "u"],
                       {"s": {"t": F(1, 3), "u": F(2, 3)},
                        "t": {"t": ONE}, "u": {"u": ONE}}, initial="s")
    values = reach_probability(chain.succ, {1})
    assert values[1] == ONE
    assert values[0] == F(1, 3)
    values = reach_probability(chain.succ, {1}, avoid={0})
    assert values[0] == ZERO


def test_reach_probability_rejects_overlap():
    chain = make_chain(["s"], {"s": {"s": ONE}}, initial="s")
    with pytest.raises(InputFormatError):
        reach_probability(chain.succ, {0}, avoid={0})


def test_reach_partition_identity():
    # acyclic-plus-sinks chain: probabilities of hitting the two sink
    # groups partition the mass
    chain = make_chain(["r", "m", "a", "b", "c"],
                       {"r": {"m": HALF, "a": HALF},
                        "m": {"b": F(1, 3), "c": F(2, 3)},
                        "a": {"a": ONE}, "b": {"b": ONE}, "c": {"c": ONE}},
                       initial="r")
    left = reach_probability(chain.succ, {2, 3})
    right = reach_probability(chain.succ, {4})
    assert all(l + r == ONE for l, r in zip(left, right))


def ruin_chain(up):
    """Gambler's ruin on 0..L-1: both ends absorb, interior k moves up with up[k]."""
    names = [f"s{k}" for k in range(len(up))]
    transitions = {names[0]: {names[0]: ONE}, names[-1]: {names[-1]: ONE}}
    for k in range(1, len(up) - 1):
        transitions[names[k]] = {names[k + 1]: up[k], names[k - 1]: ONE - up[k]}
    return make_chain(names, transitions, labels={names[-1]: ["a"]}, initial=names[0])


def ruin_closed_form(up, start):
    """sum_{j<start} rho_j / sum_{j<L-1} rho_j, rho_j = prod_{k<=j} (1-up[k])/up[k]."""
    rho = [ONE]
    for k in range(1, len(up) - 1):
        rho.append(rho[-1] * (ONE - up[k]) / up[k])
    return sum(rho[:start], ZERO) / sum(rho, ZERO)


def balanced_walk(length, rng):
    """Interior up-probabilities in pairs (p, 1-p), so the drift cancels pairwise.

    ``length`` is even, so the interior splits into whole pairs.
    """
    up = [ONE] * length
    for k in range(1, length - 2, 2):
        p = rng.choice([F(1, 3), F(2, 5), F(3, 7), F(5, 11)])
        up[k], up[k + 1] = p, ONE - p
    return up


@pytest.mark.parametrize("walk", ["balanced", "biased"])
def test_reach_probability_matches_ruin_closed_form(walk):
    length = 300
    if walk == "balanced":
        up = balanced_walk(length, random.Random(11))
    else:
        up = [ONE] + [F(51, 100)] * (length - 2) + [ONE]
    values = reach_probability(ruin_chain(up).succ, {length - 1})
    assert values[0] == ZERO and values[-1] == ONE
    for start in (1, length // 2, length - 2):
        assert values[start] == ruin_closed_form(up, start)


def fraction_rows_reach_probability(rows, target, avoid):
    """reach_probability as it was before it scaled rows to integers:
    the system x_v - sum_t p_t x_t = sum_{t in target} p_t over the
    locations that can reach the target, on ``Fraction`` rows solved by
    dense ``Fraction`` elimination."""
    preds = [[] for _ in rows]
    for v, row in enumerate(rows):
        if v not in avoid:
            for t, _ in row:
                preds[t].append(v)
    can_reach, stack = set(target), list(target)
    while stack:
        for u in preds[stack.pop()]:
            if u not in can_reach:
                can_reach.add(u)
                stack.append(u)
    values = [ONE if v in target else ZERO for v in range(len(rows))]
    unknown = sorted(can_reach - set(target))
    pos = {v: i for i, v in enumerate(unknown)}
    system, rhs = [], []
    for i, v in enumerate(unknown):
        coefficients, constant = {i: ONE}, ZERO
        for t, p in rows[v]:
            if t in pos:
                coefficients[pos[t]] = coefficients.get(pos[t], ZERO) - p
            elif t in target:
                constant += p
        system.append(tuple((c, x) for c, x in coefficients.items() if x))
        rhs.append(constant)
    if unknown:
        for v, x in zip(unknown, dense_solve(dense(system, len(unknown)), rhs)):
            values[v] = x
    return values


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reach_probability_matches_fraction_rows(seed):
    # Random chains with self-loops, mixed denominators and avoid sets.
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    rows = []
    for v in range(n):
        targets = rng.sample(range(n), rng.randint(1, min(n, 4)))
        if v not in targets and rng.random() < 0.4:
            targets[0] = v
        weights = [rng.randint(1, 12) for _ in targets]
        rows.append(tuple((t, F(w, sum(weights))) for t, w in zip(targets, weights)))
    locations = list(range(n))
    rng.shuffle(locations)
    split = rng.randint(1, n)
    target = frozenset(locations[:split][:rng.randint(1, split)])
    avoid = frozenset(locations[split:][:rng.randint(0, n - split)])
    values = reach_probability(rows, target, avoid)
    assert values == fraction_rows_reach_probability(rows, target, avoid)
    assert all(type(x) is F for x in values)


def test_long_ruin_chain_round_trips_through_the_file_format():
    chain = ruin_chain(balanced_walk(2000, random.Random(5)))
    doc = ChainDocument(chain=chain, priority=None,
                        obligations=(None,) * len(chain), provenance=None)
    assert parse_chain_document(serialize_chain_document(doc)) == doc


def test_parity_measure_constant_priorities():
    chain, _ = seeded_chain(7)
    n = len(chain)
    assert parity_measure(chain.succ, [0] * n) == [ONE] * n
    assert parity_measure(chain.succ, [1] * n) == [ZERO] * n


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_parity_complement_identity(seed):
    chain, priority = seeded_chain(seed)
    direct = parity_measure(chain.succ, priority)
    flipped = parity_measure(chain.succ, [p + 1 for p in priority])
    assert all(a + b == ONE for a, b in zip(direct, flipped))


def frozen_nodes(game, start):
    """The frozen nodes of ``start``'s monitor game: the ones won when every
    pair is chosen and lost when none is."""
    won, _ = build_gamma_game(game, start, reachable_pairs(game, start))
    lost, _ = build_gamma_game(game, start, ())
    assert won.names == lost.names
    return [v for v in range(len(won)) if won.priority[v] != lost.priority[v]]


def test_monitor_product_fig6_pattern_measure():
    game = load_game("fig6.game.json")
    s1 = game.index("s1")
    gamma, root = build_gamma_game(game, s1, {(s1, 0)})
    hit = gamma.names.index("s1!0")
    values = reach_probability(gamma.kernel, {hit})
    assert values[root] == HALF


def test_monitor_freezes_one_step_obligation():
    doc = load_chain_doc("fig4.chain.json")
    game = embed_chain_as_game(doc.chain, doc.priority_map(), doc.obligation_map())
    gamma, _ = build_gamma_game(game, 0, ())
    # the only frozen pair is the immediate return to s1 at its own priority
    assert [gamma.names[v] for v in frozen_nodes(game, 0)] == ["s1!1"]


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_monitor_minimum_is_non_increasing(seed):
    chain, priority = seeded_chain(seed)
    game = embed_chain_as_game(chain, priority)
    gamma, root = build_gamma_game(game, 0, ())
    # with no obligation every node but the root is live, named by its minimum
    m_of = {v: int(name.rpartition("@")[2]) for v, name in enumerate(gamma.names) if v != root}
    for v in range(len(gamma)):
        for t in gamma.succ[v]:
            expected = gamma.priority[t] if v == root else min(m_of[v], gamma.priority[t])
            assert m_of[t] == expected


def test_monitor_product_numbering_is_pinned(fig6):
    # canonical certificates name monitor nodes by this numbering
    s1 = fig6.index("s1")
    gamma, root = build_gamma_game(fig6, s1, {(s1, 0), (s1, 2)})
    assert root == 0
    assert gamma.names == (
        "s1@start", "s2@2", "s3@0", "s4@0", "s5@0", "s6@0", "s1!0",
        "s4@2", "s5@2", "s6@1", "s1!1", "s1!2")
    assert frozen_nodes(fig6, s1) == [6, 10, 11]
    for v, name in enumerate(gamma.names):
        if v in (6, 10, 11):
            # frozen pairs are absorbing, won exactly when chosen
            assert gamma.kernel[v] == ((v, ONE),)
            assert gamma.priority[v] == (0 if v != 10 else 1)
        else:
            config = fig6.index(name.partition("@")[0])
            assert (gamma.owners[v], gamma.priority[v]) == (fig6.owners[config],
                                                            fig6.priority[config])
        assert gamma.obligation[v] is None


def test_monitor_size_bound():
    game = load_game("fig6.game.json")
    gamma, _ = build_gamma_game(game, 0, ())
    k = game.max_priority()
    assert len(gamma) <= len(game) * (k + 1) + 1


@pytest.mark.parametrize("priority", [[0], [0, 1, 1]], ids=["short", "long"])
def test_a_priority_map_of_the_wrong_length_is_rejected(priority):
    chain = make_chain(["s", "t"], {"s": {"t": ONE}, "t": {"t": ONE}}, initial="s")
    for call in (lambda: bscc_decompose(chain.succ, priority),
                 lambda: parity_measure(chain.succ, priority),
                 lambda: monte_carlo_estimate(chain, priority, samples=10)):
        with pytest.raises(InputFormatError, match="priority map must cover every location"):
            call()


def test_monte_carlo_is_deterministic_given_seed():
    chain = make_chain(["s", "t", "u"],
                       {"s": {"t": F(1, 3), "u": F(2, 3)},
                        "t": {"t": ONE}, "u": {"u": ONE}}, initial="s")
    priority = (0, 0, 1)
    assert parity_measure(chain.succ, priority)[chain.initial] == F(1, 3)
    a = monte_carlo_estimate(chain, priority, samples=2000, seed=5)
    b = monte_carlo_estimate(chain, priority, samples=2000, seed=5)
    assert a == b
    assert a.contains(F(1, 3))


def test_monte_carlo_measure_one_objective():
    chain = make_chain(["s"], {"s": {"s": ONE}}, initial="s")
    est = monte_carlo_estimate(chain, (0,), samples=500, seed=1)
    assert est.estimate == 1.0
