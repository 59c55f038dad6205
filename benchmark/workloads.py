"""Seeded instance families of the benchmark, one per workload.

A workload is a fixed number of *slots*; every round solves one seeded
instance per slot (``instance(i)``).  An instance whose call, or a solve
its checks make, exceeds a budget stays in and counts as failed.
Workloads may also carry *fixed* instances, the same for every seed and
attempted in every round: the known failure (a game whose two-player
solve fails every time because of a fault in the program) and, on
``decide``, a game whose two-player solve falls into the strategy
enumeration below its cap.

The random-game families (``decide``, ``witness``) draw their game
structures from fixed ``random_game`` streams and let the seed reorder
the configurations of every game (and draw the decision queries); the
random p-automaton pairs of ``paut`` likewise come from a fixed stream
and the seed reorders the locations of each chain.  The order changes
every tie-break the solver makes -- strategy enumeration order, the
climb's switching order, the canonical witnesses -- while the set's cost
stays comparable between seeds.  Drawing the structures
from the seed instead makes a set's cost depend on whether it happened
to contain one of the rare games whose two-player solves fall into the
enumeration fallback (one game in about 150 at 160 configurations takes
over 30 s, against a median of 40 ms).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from obg import (Budgets, accepts, build_product_game, decide_value,
                 find_best_dependency, solve_parity)
from obg import io_formats, pautomata
from obg.generators import (SPLITS, THRESHOLDS, random_automaton, random_game,
                            random_labeled_chain)
from obg.model import (LabeledMarkovChain, ObligationGame, Owner, make_chain,
                       make_game)
from obg.pautomata import FF, TT, PAutomaton, StateAtom, Term

import checks

# Fixed streams the pools are drawn from.
DECIDE_POOL_SEED = 1206
WITNESS_POOL_SEED = 5174
PAIR_POOL_SEED = 2012
# The known failure: the 14th game of random_game(Random(8), max_configs=160,
# max_obligations=4, max_priority=3), whose two-player solve stalls and
# would need 2^23 strategies.
FAILING_STREAM = (8, 160, 13)
# The 35th game of random_game(Random(9), max_configs=60, max_obligations=4,
# max_priority=3), 46 configurations: its climbs stall, and two
# enumerations with 264 best responses take about 90 % of its 0.27 s.
ENUMERATING_STREAM = (9, 60, 34)
# Random p-automaton pairs keep products of at most this many obligations.
# The dependency search is exponential in the obligation count: among
# 1500 pairs, products with 7 to 9 obligations took up to 4 s against a
# median of 1 ms, so a 200-pair set's cost depended on the seed.
PAIR_OBLIGATION_CAP = 4


@dataclass
class Sizes:
    decide_games: int
    decide_max_configs: int
    witness_games: int
    witness_min_configs: int
    witness_max_configs: int
    ladder_lengths: tuple[int, ...]
    ruin_lengths: tuple[int, ...]
    paut_pairs: int
    oracle_pairs_per_game: int
    oracle_pairs_total: int


FULL = Sizes(decide_games=600, decide_max_configs=30,
             witness_games=120, witness_min_configs=20, witness_max_configs=40,
             ladder_lengths=tuple(range(100, 301, 25)),
             ruin_lengths=(250, 400, 550, 700, 850, 1000), paut_pairs=400,
             oracle_pairs_per_game=64, oracle_pairs_total=6000)
QUICK = Sizes(decide_games=12, decide_max_configs=12,
              witness_games=6, witness_min_configs=2, witness_max_configs=12,
              ladder_lengths=(12, 30), ruin_lengths=(20, 40), paut_pairs=6,
              oracle_pairs_per_game=256, oracle_pairs_total=100000)


@dataclass
class Instance:
    """One operation: a timed library call plus everything to check it."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any, checks.OracleAllowance], list[str]]
    digest: Callable[[Any], str]
    # CLI form: files to write, argv after ``obg``, and a checker of
    # (exit code, stdout, library result).
    cli_files: dict[str, str] = field(default_factory=dict)
    cli_argv: Optional[list[str]] = None
    cli_check: Optional[Callable[[int, str, Any], list[str]]] = None
    # Extra traced-only work on the same input (the layered p-automaton solve).
    traced_extra: Optional[Callable[[], Any]] = None


@dataclass
class Workload:
    slots: int
    instance: Callable[[int], Instance]
    cli_slots: tuple[int, ...]
    fixed: list[Instance]
    notes: dict[str, int] = field(default_factory=dict)


def slot_rng(workload: str, seed: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{slot}")


# ---------------------------------------------------------------------------
# Shared pieces


def permuted(game: ObligationGame, rng: random.Random) -> ObligationGame:
    """The same game with its configurations listed in a random order."""
    n = len(game)
    order = list(range(n))
    rng.shuffle(order)
    configs = [(game.names[o], game.owners[o], game.priority[o], game.obligation[o])
               for o in order]
    edges = [(game.names[a], game.names[b]) for a in range(n) for b in game.succ[a]]
    kernel = {game.names[a]: {game.names[t]: p for t, p in game.kernel[a]}
              for a in range(n) if game.kernel[a] is not None}
    return make_game(configs, edges, kernel)


def game_file(game: ObligationGame) -> str:
    return io_formats.serialize_game_document(io_formats.GameDocument(game, None))


def report_digest(report) -> str:
    return json.dumps([[checks.fmt(x) for x in report.values],
                       [checks.fmt(x) for x in report.pre_values],
                       [[v, row] for v, row in report.dependency.entries],
                       report.reduced_solution.sigma and report.reduced_solution.sigma.choices,
                       report.reduced_solution.pi and report.reduced_solution.pi.choices])


def parse_cli_json(stdout: str, what: str) -> tuple[Optional[dict], list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, [f"{what}: CLI printed no JSON document"]


def expect_exit(code: int, expected: int, what: str) -> list[str]:
    return [] if code == expected else [f"{what}: CLI exited {code}, expected {expected}"]


def stream_game(stream: tuple[int, int, int]) -> ObligationGame:
    """Game ``index`` of ``random_game(Random(seed), max_configs, ...)``."""
    seed, max_configs, index = stream
    rng = random.Random(seed)
    for _ in range(index + 1):
        game = random_game(rng, max_configs=max_configs, max_obligations=4,
                           max_priority=3)
    return game


def game_pool(seed: int, count: int, max_configs: int,
              min_configs: int = 2) -> list[ObligationGame]:
    """The first ``count`` games of the stream with at least ``min_configs``."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        game = random_game(rng, max_configs=max_configs, max_obligations=4,
                           max_priority=3)
        if len(game) >= min_configs:
            pool.append(game)
    return pool


def quartile_slots(sizes: list[int]) -> tuple[int, ...]:
    """Indices of the instances at the quartiles of the size order."""
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    return tuple(sorted({order[len(order) * q // 4] for q in (1, 2, 3)}))


# ---------------------------------------------------------------------------
# decide: the paper's decision procedure, primal and dual dependency search


def decide_instance(label: str, game: ObligationGame, config: int, cmp: str,
                    threshold: Fraction, *,
                    cli_command: Optional[str] = "decide") -> Instance:
    dual = checks.dual_structure(game)

    def call():
        return decide_value(game, config, cmp, threshold)

    def check(result, allowance) -> list[str]:
        (dep0, rep0), (dep1, rep1) = result.primal, result.dual
        problems = checks.check_report(game, dep0, rep0, allowance=allowance,
                                       what=label + " primal")
        problems += checks.check_report(dual, dep1, rep1, allowance=allowance,
                                        what=label + " dual")
        problems += checks.check_determinacy(rep0.values, rep1.values, game.names)
        if result.value != rep0.values[config]:
            problems.append(f"{label}: decided value is not the primal value")
        if result.verdict != checks.holds(cmp, result.value, threshold):
            problems.append(f"{label}: verdict differs from value {cmp} threshold")
        return problems

    def digest(result) -> str:
        return json.dumps([result.verdict, checks.fmt(result.value),
                           report_digest(result.primal[1]),
                           report_digest(result.dual[1])])

    files = {"game.json": game_file(game)}
    if cli_command is None:
        return Instance(label=label, call=call, check=check, digest=digest)
    if cli_command == "decide":
        argv = ["decide", "{game.json}", "--config", game.names[config], "--cmp", cmp,
                "--threshold", checks.fmt(threshold)]

        def cli_check(code, stdout, result) -> list[str]:
            printed, problems = parse_cli_json(stdout, label)
            if problems:
                return problems
            problems = expect_exit(code, 0 if result.verdict else 1, label)
            if printed.get("verdict") != result.verdict or \
                    printed.get("value") != checks.fmt(result.value):
                problems.append(f"{label}: CLI verdict or value differs from the library")
            return problems
    else:  # the known failure, run as `obg solve-game --no-witnesses`
        argv = ["solve-game", "{game.json}", "--format", "json", "--no-witnesses"]

        def cli_check(code, stdout, result) -> list[str]:
            printed, problems = parse_cli_json(stdout, label)
            if problems:
                return problems
            return expect_exit(code, 0, label) + checks.check_cli_values(
                printed.get("values"), game.names, result.primal[1].values, label)

    return Instance(label=label, call=call, check=check, digest=digest,
                    cli_files=files, cli_argv=argv, cli_check=cli_check)


def decide_workload(seed: int, sizes: Sizes) -> Workload:
    pool = game_pool(DECIDE_POOL_SEED, sizes.decide_games, sizes.decide_max_configs)

    def instance(slot: int) -> Instance:
        rng = slot_rng("decide", seed, slot)
        game = permuted(pool[slot], rng)
        config = rng.randrange(len(game))
        cmp = rng.choice([">=", ">"])
        threshold = rng.choice(THRESHOLDS)
        return decide_instance(f"decide[{slot}]", game, config, cmp, threshold)

    failing = decide_instance("decide[known-failure]", stream_game(FAILING_STREAM),
                              0, ">=", Fraction(1, 2), cli_command="solve-game")
    # Library call only: its CLI time would be a fourth, much slower
    # term in cli_s, the mean over the three quartile games.
    enumerating = decide_instance("decide[enumerating]", stream_game(ENUMERATING_STREAM),
                                  0, ">=", Fraction(1, 2), cli_command=None)
    return Workload(len(pool), instance, quartile_slots([len(game) for game in pool]),
                    [failing, enumerating])


# ---------------------------------------------------------------------------
# witness: the same family, solved with canonical witness strategies


def witness_instance(label: str, game: ObligationGame) -> Instance:
    dual = checks.dual_structure(game)

    def call():
        return find_best_dependency(game, witnesses=True)

    def check(result, allowance) -> list[str]:
        dep, report = result
        problems = checks.check_report(game, dep, report, allowance=allowance,
                                       what=label)
        if report.reduced_solution.sigma is None:
            problems.append(f"{label}: no witnesses returned")
        dual_dep, dual_report = find_best_dependency(
            dual, budgets=Budgets(max_priority=game.max_priority() + 1),
            witnesses=False)
        problems += checks.check_report(dual, dual_dep, dual_report,
                                        what=label + " dual")
        problems += checks.check_determinacy(report.values, dual_report.values,
                                             game.names)
        return problems

    def digest(result) -> str:
        return report_digest(result[1])

    def cli_check(code, stdout, result) -> list[str]:
        printed, problems = parse_cli_json(stdout, label)
        if problems:
            return problems
        problems = expect_exit(code, 0, label)
        problems += checks.check_cli_values(printed.get("values"), game.names,
                                            result[1].values, label)
        solution = result[1].reduced_solution
        for key, strategy in (("player0", solution.sigma), ("player1", solution.pi)):
            expected = {game.names[v]: game.names[u] for v, u in strategy.choices}
            if printed.get("strategies", {}).get(key) != expected:
                problems.append(f"{label}: CLI {key} witness differs from the library")
        return problems

    return Instance(label=label, call=call, check=check, digest=digest,
                    cli_files={"game.json": game_file(game)},
                    cli_argv=["solve-game", "{game.json}", "--format", "json"],
                    cli_check=cli_check)


def witness_workload(seed: int, sizes: Sizes) -> Workload:
    # Games below 20 configurations are skipped: over the whole 2..40 range
    # the median call time sat in a sparse stretch of the cost distribution
    # and moved by 13 % between seeds.
    pool = game_pool(WITNESS_POOL_SEED, sizes.witness_games,
                     sizes.witness_max_configs, sizes.witness_min_configs)

    def instance(slot: int) -> Instance:
        game = permuted(pool[slot], slot_rng("witness", seed, slot))
        return witness_instance(f"witness[{slot}]", game)

    failing = witness_instance("witness[known-failure]", stream_game(FAILING_STREAM))
    return Workload(len(pool), instance,
                    quartile_slots([len(game) for game in pool]), [failing])


# ---------------------------------------------------------------------------
# ladder: long obligation-free two-player paths


LADDER_OWNERS = (Owner.PLAYER0, Owner.PLAYER1, Owner.PROBABILISTIC)


def ladder_game(length: int, rng: random.Random) -> ObligationGame:
    """Owners cycle P0, P1, random; a forward and a back edge; priority i % 7."""
    configs, edges, kernel = [], [], {}
    for i in range(length):
        name = f"c{i}"
        owner = LADDER_OWNERS[i % 3]
        configs.append((name, owner, i % 7, None))
        forward, back = f"c{min(i + 1, length - 1)}", f"c{max(i - 1, 0)}"
        for target in {forward, back}:
            edges.append((name, target))
        if owner is Owner.PROBABILISTIC:
            up, down = rng.choice(SPLITS)
            kernel[name] = {forward: up, back: down}
    return make_game(configs, edges, kernel)


def ladder_instance(label: str, game: ObligationGame) -> Instance:
    dual = checks.dual_structure(game)

    def call():
        return solve_parity(game, witnesses=False)

    def check(result, allowance) -> list[str]:
        problems = checks.check_range(result.values, len(game), label)
        problems += checks.check_bellman(game, result.values, what=label)
        dual_values = solve_parity(dual, witnesses=False).values
        problems += checks.check_bellman(dual, dual_values, what=label + " dual")
        problems += checks.check_determinacy(result.values, dual_values, game.names)
        problems += checks.check_oracle(game, result.values, None, None, allowance,
                                        label)
        return problems

    def digest(result) -> str:
        return json.dumps([checks.fmt(x) for x in result.values])

    def cli_check(code, stdout, result) -> list[str]:
        printed, problems = parse_cli_json(stdout, label)
        if problems:
            return problems
        return expect_exit(code, 0, label) + checks.check_cli_values(
            printed.get("values"), game.names, result.values, label)

    return Instance(label=label, call=call, check=check, digest=digest,
                    cli_files={"game.json": game_file(game)},
                    cli_argv=["solve-game", "{game.json}", "--format", "json",
                              "--no-witnesses", "--max-priority",
                              str(max(game.priority))],
                    cli_check=cli_check)


def ladder_workload(seed: int, sizes: Sizes) -> Workload:
    lengths = sizes.ladder_lengths

    def instance(slot: int) -> Instance:
        game = ladder_game(lengths[slot], slot_rng("ladder", seed, slot))
        return ladder_instance(f"ladder[{lengths[slot]}]", game)

    # The CLI runs the middle ladder (200 configurations).
    return Workload(len(lengths), instance, (len(lengths) // 2,), [])


# ---------------------------------------------------------------------------
# paut: p-automaton acceptance through the product game


def reach_automaton(cmp: str, bound: Fraction) -> PAutomaton:
    """One state q of odd priority that waits for the label ``a``: [q cmp bound]."""
    return PAutomaton(propositions=("a",), states=("q",), priority={"q": 1},
                      cases={"q": {frozenset(): StateAtom("q"),
                                   frozenset({"a"}): TT}},
                      default={"q": FF}, initial=Term("q", cmp, bound))


def ruin_chain(length: int, up: list[Fraction], start: int) -> LabeledMarkovChain:
    """Birth-death chain on 0..length-1; 0 and length-1 absorb, the top is labelled a."""
    names = [f"s{i}" for i in range(length)]
    transitions = {names[0]: {names[0]: Fraction(1)},
                   names[-1]: {names[-1]: Fraction(1)}}
    for k in range(1, length - 1):
        transitions[names[k]] = {names[k + 1]: up[k], names[k - 1]: 1 - up[k]}
    return make_chain(names, transitions, labels={names[-1]: ["a"]},
                      initial=names[start])


def balanced_walk(length: int, rng: random.Random) -> list[Fraction]:
    """Up-probabilities of the interior locations, in pairs (p, 1-p) or (1-p, p).

    Each pair's drift ratios cancel, so prod (1-p_k)/p_k stays bounded
    along the chain.  With independent draws that product wanders like
    a random walk, and the cost of exact elimination follows its range:
    the 1000-location chain then took 0.94 s to 1.40 s depending on the
    seed.
    """
    up = [Fraction(1)] * length
    for k in range(1, length - 1, 2):
        p = rng.choice(SPLITS)[0]
        pair = (p, 1 - p) if rng.random() < 0.5 else (1 - p, p)
        up[k] = pair[0]
        if k + 1 < length - 1:
            up[k + 1] = pair[1]
    return up


def chain_file(chain: LabeledMarkovChain) -> str:
    doc = io_formats.ChainDocument(chain=chain, priority=None,
                                   obligations=tuple(None for _ in chain.names),
                                   provenance=None)
    return io_formats.serialize_chain_document(doc)


def paut_instance(label: str, aut: PAutomaton, chain: LabeledMarkovChain,
                  expected_root: Optional[Fraction]) -> Instance:
    """Acceptance of one pair; ``expected_root`` is the closed form, if any.

    Random pairs (no closed form) are also solved by ``accepts_layered``,
    as a cross-check and, in traced rounds, for its per-layer figures.
    """
    # Looked up at call time, so that a traced round sees the wrapper; the
    # layered solve is a cross-check only while the program has it.
    layered = expected_root is None and hasattr(pautomata, "accepts_layered")

    def call():
        return accepts(aut, chain)

    def check(result, allowance) -> list[str]:
        product, root, report = result.product, result.root, result.report
        problems = checks.check_report(product, report.dependency, report,
                                       allowance=allowance, what=label)
        if result.accepted != (report.values[root] == 1):
            problems.append(f"{label}: verdict differs from the root value")
        if expected_root is not None:
            if report.pre_values[root] != expected_root:
                problems.append(f"{label}: root pre-value differs from the "
                                f"gambler's-ruin closed form")
            term = aut.initial
            if result.accepted != checks.holds(term.cmp, expected_root, term.bound):
                problems.append(f"{label}: verdict differs from the closed form")
        dual = checks.dual_structure(product)
        dual_dep, dual_report = find_best_dependency(
            dual, budgets=Budgets(max_priority=product.max_priority() + 1),
            witnesses=False)
        problems += checks.check_report(dual, dual_dep, dual_report,
                                        what=label + " dual")
        problems += checks.check_determinacy(report.values, dual_report.values,
                                             product.names)
        if layered:
            verdict, values = pautomata.accepts_layered(aut, chain)
            if verdict != result.accepted or values[root] != report.values[root]:
                problems.append(f"{label}: accepts_layered disagrees with accepts")
        return problems

    def digest(result) -> str:
        return json.dumps([result.accepted, result.root, len(result.product),
                           report_digest(result.report)])

    def cli_check(code, stdout, result) -> list[str]:
        printed, problems = parse_cli_json(stdout, label)
        if problems:
            return problems
        problems = expect_exit(code, 0 if result.accepted else 1, label)
        expected = {"accepted": result.accepted,
                    "root": result.product.names[result.root],
                    "product_size": len(result.product),
                    "root_value": checks.fmt(result.report.values[result.root])}
        if printed != expected:
            problems.append(f"{label}: CLI acceptance output differs from the library")
        return problems

    extra = None
    if layered:
        def extra():
            return pautomata.accepts_layered(aut, chain)

    return Instance(label=label, call=call, check=check, digest=digest,
                    cli_files={"aut.json": io_formats.serialize_automaton_document(aut),
                               "chain.json": chain_file(chain)},
                    cli_argv=["paut", "accepts", "{aut.json}", "{chain.json}"],
                    cli_check=cli_check, traced_extra=extra)


def pair_pool(count: int, notes: dict[str, int]) -> list[tuple[PAutomaton, LabeledMarkovChain, int]]:
    """The first ``count`` generator pairs whose product stays within the caps."""
    rng = random.Random(PAIR_POOL_SEED)
    max_obligations = Budgets().max_obligations
    pool = []
    while len(pool) < count:
        aut = random_automaton(rng)
        chain = random_labeled_chain(rng)
        product, _ = build_product_game(aut, chain)
        obligations = len(product.obligation_indices())
        if obligations > max_obligations:
            notes["pairs_dropped_obligation_budget"] += 1
        elif obligations > PAIR_OBLIGATION_CAP:
            notes["pairs_dropped_over_cap"] += 1
        else:
            pool.append((aut, chain, len(product)))
    return pool


def relabeled(chain: LabeledMarkovChain, rng: random.Random) -> LabeledMarkovChain:
    """The same chain with its locations listed in a random order."""
    order = list(range(len(chain)))
    rng.shuffle(order)
    names = [chain.names[o] for o in order]
    transitions = {chain.names[i]: {chain.names[t]: p for t, p in row}
                   for i, row in enumerate(chain.succ)}
    labels = {chain.names[i]: sorted(chain.labels[i]) for i in range(len(chain))}
    return make_chain(names, transitions, labels=labels,
                      initial=chain.names[chain.initial])


def paut_workload(seed: int, sizes: Sizes) -> Workload:
    ruins = sizes.ruin_lengths
    notes = {"pairs_dropped_obligation_budget": 0, "pairs_dropped_over_cap": 0}
    pool = pair_pool(sizes.paut_pairs, notes)

    def ruin(slot: int) -> Instance:
        length = ruins[slot]
        rng = slot_rng("paut-ruin", seed, slot)
        up = balanced_walk(length, rng)
        # The product is numbered from the start location and the cost of
        # exact elimination follows that numbering: with a uniformly drawn
        # start the 850-location chain took 0.72 s to 0.92 s between seeds.
        start = length // 2
        expected = checks.ruin_probability(up, start)
        # The bound is the exact probability itself: accepted under >= on
        # even slots, rejected under > on odd ones, so every round decides
        # strict against non-strict at the boundary, and the verdicts (which
        # change how much the dependency search solves) are the same in
        # every run.
        cmp = ">=" if slot % 2 == 0 else ">"
        return paut_instance(f"paut-ruin[{length}]", reach_automaton(cmp, expected),
                             ruin_chain(length, up, start), expected)

    def pair(index: int) -> Instance:
        aut, chain, _ = pool[index]
        chain = relabeled(chain, slot_rng("paut-pair", seed, index))
        return paut_instance(f"paut-pair[{index}]", aut, chain, None)

    def instance(slot: int) -> Instance:
        if slot < len(ruins):
            return ruin(slot)
        return pair(slot - len(ruins))

    # The CLI runs the pairs at the quartiles of the pool's product sizes;
    # a ruin chain's CLI time would depend on the seed's walk.
    cli = tuple(len(ruins) + i for i in quartile_slots([size for _, _, size in pool]))
    return Workload(len(ruins) + len(pool), instance, cli, [], notes)


FAMILIES = {"decide": decide_workload, "witness": witness_workload,
            "ladder": ladder_workload, "paut": paut_workload}


def build(name: str, seed: int, quick: bool) -> Workload:
    return FAMILIES[name](seed, QUICK if quick else FULL)


def write_cli_files(instance: Instance, directory: Path) -> list[str]:
    """Write the instance's obg-v1 files; return the argv after ``obg``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in instance.cli_files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return [paths[arg[1:-1]] if arg.startswith("{") and arg.endswith("}") else arg
            for arg in instance.cli_argv]
