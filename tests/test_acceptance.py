"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

All comparisons are exact rational equality unless a criterion is
explicitly statistical.  The randomized suites are generated from fixed
seeds, and every report they produce feeds the cross-cutting criteria
(two-valuedness, certificate soundness).
"""

import random
from fractions import Fraction as F

import pytest

from obg import (Dependency, accepts, build_gamma_game, dual_game,
                 embed_chain_as_game, find_best_dependency,
                 monte_carlo_estimate, parity_measure, reach_probability,
                 solve_parity, solve_parity_oracle, values_given_dependency,
                 verify_dependency)
from obg.generators import random_chain, random_game, random_parity_game
from obg.model import ONE, ZERO

from conftest import accepts_layered, load_automaton, load_chain_doc, load_game

HALF = F(1, 2)

DETERMINACY_GAMES = 200
ORACLE_GAMES = 200
MC_CHAINS = 20
MC_SAMPLES = 100_000


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def solved_instances():
    """Shared randomized suites; their reports feed criteria 8 and 9."""
    registry = {"games": [], "reports": [], "dependencies": []}

    def record(game, dep, report):
        registry["games"].append(game)
        registry["dependencies"].append(dep)
        registry["reports"].append(report)

    # determinacy suite
    rng = random.Random(20260808)
    determinacy_ok = True
    for _ in range(DETERMINACY_GAMES):
        game = random_game(rng, max_configs=6, max_obligations=3, max_priority=3)
        dep, primal = find_best_dependency(game, witnesses=False)
        record(game, dep, primal)
        _, counter = find_best_dependency(dual_game(game), witnesses=False)
        determinacy_ok &= all(a + b == ONE
                              for a, b in zip(primal.values, counter.values))
    registry["determinacy_ok"] = determinacy_ok

    # oracle suite
    rng = random.Random(11235813)
    oracle_ok = True
    for _ in range(ORACLE_GAMES):
        game = random_parity_game(rng, max_configs=6, max_priority=3)
        fast = solve_parity(game)
        slow = solve_parity_oracle(game)
        oracle_ok &= fast == slow
        dep, report = find_best_dependency(game, witnesses=False)
        record(game, dep, report)
        oracle_ok &= report.values == fast.values
    registry["oracle_ok"] = oracle_ok

    # figure instances
    for name in ["fig1.chain.json", "fig2_all_winning.chain.json",
                 "fig2_losing_path.chain.json", "fig4.chain.json"]:
        doc = load_chain_doc(name)
        game = embed_chain_as_game(doc.chain, doc.priority_map(),
                                   doc.obligation_map())
        dep, report = find_best_dependency(game, witnesses=False)
        record(game, dep, report)
    for name in ["fig5.game.json", "fig6.game.json", "fig6_s4_geq.game.json",
                 "fig6_s4_gt.game.json"]:
        game = load_game(name)
        dep, report = find_best_dependency(game, witnesses=False)
        record(game, dep, report)
    return registry


def test_criterion_1_fig6_reproduction():
    game = load_game("fig6.game.json")
    s1 = game.index("s1")
    dep, report = find_best_dependency(game, witnesses=False)
    row = dep.get(s1)
    ok = (all(v == ONE for v in report.values)
          and row is not None and {(s1, 0), (s1, 2)} <= row
          and report.pre_values[s1] == F(3, 4))
    report_line(1, ok, "fig6 values all 1, certificate covers {(s1,0),(s1,2)}, "
                       "gamma value at s1 exactly 3/4")


def test_criterion_2_fig6_variants():
    geq = load_game("fig6_s4_geq.game.json")
    dep_geq, _ = find_best_dependency(geq, witnesses=False)
    ok = dep_geq.get(geq.index("s4")) is not None
    gt = load_game("fig6_s4_gt.game.json")
    dep_gt, _ = find_best_dependency(gt, witnesses=False)
    ok &= dep_gt.get(gt.index("s1")) is None
    ok &= dep_gt.get(gt.index("s4")) is None
    report_line(2, ok, "O(s4)=>=1/2 admits a certificate meeting s4; "
                       "O(s4)=>1/2 leaves s1 and s4 unmet")


def test_criterion_3_fig2_reproduction():
    lose = load_chain_doc("fig2_losing_path.chain.json")
    _, report = find_best_dependency(embed_chain_as_game(
        lose.chain, lose.priority_map(), lose.obligation_map()), witnesses=False)
    ok = (report.value_of("s2") == ZERO and report.value_of("s1") == HALF)
    win = load_chain_doc("fig2_all_winning.chain.json")
    _, report = find_best_dependency(embed_chain_as_game(
        win.chain, win.priority_map(), win.obligation_map()), witnesses=False)
    ok &= report.value_of("s1") == ONE
    report_line(3, ok, "fig2: losing path gives s2=0 and s1=1/2; "
                       "all-winning gives s1=1")


def test_criterion_4_fig1_reproduction():
    doc = load_chain_doc("fig1.chain.json")
    game = embed_chain_as_game(doc.chain, doc.priority_map(), doc.obligation_map())
    _, report = find_best_dependency(game, witnesses=False)
    ok = report.value_of("s2") == ZERO and report.value_of("s3") == ONE
    ok &= report.pre_values[game.index("s3")] == HALF
    # the recurrence pattern measured through the monitor game
    s3 = game.index("s3")
    gamma, root = build_gamma_game(game, s3, {(s3, 2)})
    hit = gamma.names.index("s3!2")
    measure = reach_probability(gamma.kernel, {hit})[root]
    ok &= measure == HALF
    report_line(4, ok, "fig1: s2=0, s3=1, recurrence pattern measures exactly 1/2")


def test_criterion_5_bottom_versus_empty():
    doc = load_chain_doc("fig4.chain.json")
    game = embed_chain_as_game(doc.chain, doc.priority_map(), doc.obligation_map())
    dep, report = find_best_dependency(game, witnesses=False)
    ok = dep.get(0) == frozenset() and report.values[0] == ONE
    mutated = Dependency.from_mapping(game, {0: None})
    ok &= values_given_dependency(game, mutated, witnesses=False).values[0] == ZERO
    report_line(5, ok, "fig4: value 1 via the empty set, flipping to bottom gives 0")


def test_criterion_6_determinacy_suite(solved_instances):
    report_line(6, solved_instances["determinacy_ok"],
                f"val(G,v) + val(dual G,v) = 1 on {DETERMINACY_GAMES} "
                "random obligation games")


def test_criterion_7_oracle_equivalence(solved_instances):
    report_line(7, solved_instances["oracle_ok"],
                f"solve_parity == oracle and obligation solver degenerates, "
                f"{ORACLE_GAMES} random games")


def test_criterion_8_two_valuedness(solved_instances):
    ok = True
    for game, report in zip(solved_instances["games"], solved_instances["reports"]):
        for v in game.obligation_indices():
            ok &= report.values[v] in (ZERO, ONE)
    report_line(8, ok, "obligation-configuration values are 0/1 across "
                       f"{len(solved_instances['reports'])} solved instances")


def test_criterion_9_certificate_soundness(solved_instances):
    ok = True
    for game, dep in zip(solved_instances["games"],
                         solved_instances["dependencies"]):
        ok &= verify_dependency(game, dep).good
    report_line(9, ok, "verify_dependency accepts every found certificate")


def test_criterion_10_p_automata():
    aut = load_automaton("until.paut.json")
    from obg.pautomata import is_uniform
    ok = is_uniform(aut)[0]
    for name, expected in [("two_location.chain.json", True),
                           ("three_location.chain.json", False)]:
        chain = load_chain_doc(name).chain
        result = accepts(aut, chain)
        ok &= result.accepted == expected == _until_oracle(chain)
        layered_verdict, layered_values = accepts_layered(aut, chain)
        ok &= layered_verdict == result.accepted
        ok &= all(layered_values[v] == result.report.values[v]
                  for v in layered_values)
    report_line(10, ok, "source automaton uniform; acceptance matches the "
                        "until oracle; layered solve agrees")


def _until_oracle(chain) -> bool:
    region = set(range(len(chain)))
    while True:
        refined = {s for s in region
                   if "b" in chain.labels[s]
                   and sum(p for t, p in chain.succ[s] if t in region) >= HALF}
        if refined == region:
            break
        region = refined
    avoid = {s for s in range(len(chain))
             if "a" not in chain.labels[s] and s not in region}
    values = reach_probability(chain.succ, frozenset(region), frozenset(avoid))
    return values[chain.initial] >= HALF


def test_criterion_11_monte_carlo_consistency():
    rng = random.Random(97)
    failures = 0
    for i in range(MC_CHAINS):
        chain, priority = random_chain(rng)
        exact = parity_measure(chain.succ, priority)[chain.initial]
        estimate = monte_carlo_estimate(chain, priority,
                                        samples=MC_SAMPLES, seed=1000 + i)
        if not estimate.contains(exact):
            failures += 1
    report_line(11, failures <= 1,
                f"exact parity measure within the 99% Wilson interval on "
                f"{MC_CHAINS} chains ({failures} excursions allowed 1)")
