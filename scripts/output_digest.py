"""Print one SHA-256 per output family, to show that two trees compute
the same results.

The families, each drawn from ``random.Random(seed)``:

* ``solve_parity``: values and witness strategies of random parity
  games and of their duals;
* ``find_best_dependency``: the certificate and the report (values,
  pre-values, met-set, reduced game and its solution with witnesses,
  but not the work counters) of random obligation games and of their
  duals;
* ``decide_value``: the verdict, value and both reports (primal and
  dual, without the work counters) of random obligation games, each
  with a drawn configuration, comparator and threshold;
* ``accepts``: the verdict, root and report of random p-automaton and
  labelled chain pairs;
* ``chains``: the parity measure, a reachability probability with a
  drawn target and avoid set, the bottom-SCC decomposition with
  priorities, and a seeded Monte-Carlo estimate of random chains;
* ``readme``: the stdout and exit code of every ``obg`` command listed
  in README.md, each run in a fresh interpreter with PYTHONHASHSEED=0.

An error a solver raises is part of the output it is hashed with.  The
script imports the package from the ``src`` directory beside it, so a
copy placed in another checkout digests that checkout.  Run from
anywhere:

    python3 scripts/output_digest.py --seed 7
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from obg import (Budgets, ObgError, accepts, bscc_decompose,  # noqa: E402
                 decide_value, dual_game, find_best_dependency,
                 monte_carlo_estimate, parity_measure, reach_probability,
                 solve_parity)
from obg.generators import (THRESHOLDS, random_automaton,  # noqa: E402
                            random_chain, random_game, random_labeled_chain,
                            random_parity_game)

PARITY_GAMES = 900
OBLIGATION_GAMES = 300
DECISIONS = 600
AUTOMATON_PAIRS = 300
CHAINS = 300
# products and dual games need more than the default budgets
WIDE = Budgets(max_obligations=64, max_priority=9)


def outcome(solve, *args, **kwargs) -> str:
    """The repr of a solver's result, or the error it raised."""
    try:
        return repr(solve(*args, **kwargs))
    except ObgError as exc:
        return f"{type(exc).__name__}: {exc}"


def report_fields(dep, report) -> tuple:
    return (dep, report.values, report.pre_values, sorted(report.fulfilled),
            report.reduced_game, report.reduced_solution)


def dependency_report(game) -> tuple:
    return report_fields(*find_best_dependency(game, budgets=WIDE))


def decision(game, config, cmp, threshold) -> tuple:
    result = decide_value(game, config, cmp, threshold)
    return (result.verdict, result.value, report_fields(*result.primal),
            report_fields(*result.dual))


def acceptance(aut, mc) -> tuple:
    result = accepts(aut, mc, budgets=WIDE, witnesses=True)
    report = result.report
    return (result.accepted, result.root, result.product, report.dependency,
            report.values, report.pre_values, report.reduced_solution)


def parity_lines(seed: int):
    rng = random.Random(seed)
    for _ in range(PARITY_GAMES):
        game = random_parity_game(rng, max_configs=12, max_priority=4)
        for side in (game, dual_game(game)):
            yield outcome(solve_parity, side)


def dependency_lines(seed: int):
    rng = random.Random(seed)
    for _ in range(OBLIGATION_GAMES):
        game = random_game(rng, max_configs=8, max_obligations=4)
        for side in (game, dual_game(game)):
            yield outcome(dependency_report, side)


def decision_lines(seed: int):
    rng = random.Random(seed)
    for _ in range(DECISIONS):
        game = random_game(rng, max_configs=30, max_obligations=4, max_priority=3)
        config = rng.randrange(len(game))
        yield outcome(decision, game, config, rng.choice([">=", ">"]),
                      rng.choice(THRESHOLDS))


def acceptance_lines(seed: int):
    rng = random.Random(seed)
    for _ in range(AUTOMATON_PAIRS):
        aut = random_automaton(rng, max_states=3)
        yield outcome(acceptance, aut, random_labeled_chain(rng, max_locations=4))


def chain_results(chain, priority, target, avoid, seed) -> tuple:
    rows = chain.succ
    return (parity_measure(rows, priority), reach_probability(rows, target, avoid),
            bscc_decompose(rows, priority),
            monte_carlo_estimate(chain, priority, samples=200, seed=seed))


def chain_lines(seed: int):
    rng = random.Random(seed)
    for i in range(CHAINS):
        chain, priority = random_chain(rng)
        drawn = rng.sample(range(len(chain.succ)), rng.randint(1, len(chain.succ)))
        cut = rng.randint(1, len(drawn))
        yield outcome(chain_results, chain, priority, frozenset(drawn[:cut]),
                      frozenset(drawn[cut:]), i)


def readme_lines(seed: int):
    """Every README command; they take no seed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("obg "):
            argv = shlex.split(line, comments=True)[1:]
            done = subprocess.run([sys.executable, "-m", "obg.cli", *argv], cwd=ROOT,
                                  env=env, capture_output=True, timeout=600)
            yield f"{argv} exit {done.returncode}\n{done.stdout.decode('utf-8')}"


FAMILIES = {"solve_parity": parity_lines, "find_best_dependency": dependency_lines,
            "decide_value": decision_lines, "accepts": acceptance_lines,
            "chains": chain_lines, "readme": readme_lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the random families (default 7)")
    args = parser.parse_args()
    for family, lines in FAMILIES.items():
        digest = hashlib.sha256()
        count = 0
        for line in lines(args.seed):
            digest.update(line.encode("utf-8") + b"\n")
            count += 1
        print(f"{family:<22}{count:>5}  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
