"""Time the canonical witnesses of large random parity games, and count
their keep tests.

Each game is ``random_parity_game(Random(seed), max_configs=n,
max_priority=5)`` for the (seed, n) pairs of ``GAMES``.  Its values are
solved (``obg.parity.solve_values``) and both players' canonical
strategies (``obg.parity._canonical_strategy``) are built ``--runs``
times each, and the fastest pass of each is reported in process time:
``values_s`` and ``best_s``.  Seeds 536 and 1000 take class steps of
strategy improvement, so ``values_s`` times those too.  The report also
gives:

* ``tests``: the keep tests (``_keeps_values`` calls) one pass runs;
* ``skipped``: the keep tests that the test-every-candidate loop would
  run on top of those, each answered here by an almost-sure strategy in
  hand.  That loop tests the candidates of a choice in order until one
  passes and takes the last untested, so it runs, for a choice fixed to
  the i-th of its c candidates (from 0), min(i + 1, c - 1) tests;
* a SHA-256 of the two strategies.

Two trees whose digests agree build the same witnesses.  Run from the
repository root:

    python3 scripts/witness_probe.py --runs 3
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obg import parity  # noqa: E402
from obg.generators import random_parity_game  # noqa: E402

GAMES = ((536, 200), (1000, 800), (2002, 1600), (3001, 3000))


def loop_tests(game, values, player: int, strategy) -> int:
    """Keep tests the test-every-candidate loop runs to build `strategy`."""
    _, rank, _, positive = parity._player_view(game, values, player)
    tests = 0
    for v, u in strategy.choices:
        same = [w for w in game.succ[v] if rank[w] == rank[v]]
        if rank[v] in positive:
            tests += min(same.index(u) + 1, len(same) - 1)
    return tests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="passes over each game; the fastest counts (default 3)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error(f"--runs must be positive, got {args.runs}")

    calls = 0
    original = parity._keeps_values

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    parity._keeps_values = counting
    print(f"{'seed':>5}{'n':>6}{'configs':>8}{'classes':>8}{'tests':>7}{'skipped':>8}"
          f"{'values_s':>9}{'best_s':>9}  sha256")
    try:
        for seed, n in GAMES:
            game = random_parity_game(random.Random(seed), max_configs=n, max_priority=5)
            values_best = float("inf")
            for _ in range(args.runs):
                start = time.process_time()
                values = parity.solve_values(game)
                values_best = min(values_best, time.process_time() - start)
            best = float("inf")
            for _ in range(args.runs):
                calls = 0
                start = time.process_time()
                strategies = [parity._canonical_strategy(game, values, p) for p in (0, 1)]
                best = min(best, time.process_time() - start)
            skipped = sum(loop_tests(game, values, p, s)
                          for p, s in enumerate(strategies)) - calls
            digest = hashlib.sha256()
            for strategy in strategies:
                digest.update(("".join(f"{strategy.player} {v} {u}\n"
                                       for v, u in strategy.choices)).encode())
            print(f"{seed:>5}{n:>6}{len(game):>8}{len(set(values)):>8}{calls:>7}"
                  f"{skipped:>8}{values_best:>9.3f}{best:>9.3f}  {digest.hexdigest()}")
    finally:
        parity._keeps_values = original
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
