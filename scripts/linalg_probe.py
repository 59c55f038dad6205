"""Time the exact linear solver on the systems that public solves give it.

Two families of public-API solves are run once each, and every system
they pass to ``obg.linalg.solve_linear_system`` is captured:

* ``ruin``: ``accepts`` of a one-state reach automaton ("eventually a",
  ``>= 1/2``) on gambler's-ruin chains of 250 to 1000 locations, whose
  top location is labelled ``a``;
* ``seed1000``: ``solve_values`` on
  ``random_parity_game(Random(1000), max_configs=800, max_priority=5)``.

The captured systems are then solved again, family by family, and the
fastest of ``--runs`` passes is reported in process time, with the
number of systems, their largest dimension and total nonzeros, and a
SHA-256 of the solutions.  Two trees whose digests agree solve the same
systems to the same values, so their times compare the solver alone.
Run from the repository root:

    python3 scripts/linalg_probe.py --runs 5
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obg import (PAutomaton, StateAtom, Term, accepts, linalg,  # noqa: E402
                 make_chain)
from obg.generators import SPLITS, random_parity_game  # noqa: E402
from obg.parity import solve_values  # noqa: E402
from obg.pautomata import FF, TT  # noqa: E402

RUIN_LENGTHS = (250, 400, 550, 700, 850, 1000)


def reach_automaton() -> PAutomaton:
    """One state q of odd priority that waits for the label ``a``: [q >= 1/2]."""
    return PAutomaton(propositions=("a",), states=("q",), priority={"q": 1},
                      cases={"q": {frozenset(): StateAtom("q"),
                                   frozenset({"a"}): TT}},
                      default={"q": FF}, initial=Term("q", ">=", Fraction(1, 2)))


def ruin_chain(length: int, rng: random.Random):
    """Birth-death chain on 0..length-1 started in the middle; 0 and
    length-1 absorb, the top is labelled a.  Neighbouring interior
    locations draw mirrored splits, (p, 1-p) then (1-p, p), so the
    solution's numbers stay small along the chain."""
    names = [f"s{i}" for i in range(length)]
    transitions = {names[0]: {names[0]: Fraction(1)},
                   names[-1]: {names[-1]: Fraction(1)}}
    for k in range(1, length - 1, 2):
        p = rng.choice(SPLITS)[0]
        ups = (p, 1 - p) if rng.random() < 0.5 else (1 - p, p)
        for j, up in zip((k, k + 1), ups):
            if j < length - 1:
                transitions[names[j]] = {names[j + 1]: up, names[j - 1]: 1 - up}
    return make_chain(names, transitions, labels={names[-1]: ["a"]},
                      initial=names[length // 2])


def capture(solve) -> list[tuple[list, list]]:
    """Run `solve()` and return every (rows, rhs) it passed to the solver."""
    systems = []
    original = linalg.solve_linear_system

    def recording(rows, rhs):
        systems.append(([tuple(row) for row in rows], list(rhs)))
        return original(rows, rhs)

    linalg.solve_linear_system = recording
    try:
        solve()
    finally:
        linalg.solve_linear_system = original
    return systems


def measure(systems, runs: int) -> tuple[float, str]:
    """Fastest process time over `runs` passes, and the solutions' SHA-256."""
    best = float("inf")
    solutions = []
    for _ in range(runs):
        start = time.process_time()
        solutions = [linalg.solve_linear_system(rows, rhs) for rows, rhs in systems]
        best = min(best, time.process_time() - start)
    digest = hashlib.sha256()
    for solution in solutions:
        digest.update((" ".join(map(str, solution)) + "\n").encode())
    return best, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="passes over each family; the fastest counts (default 3)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error(f"--runs must be positive, got {args.runs}")

    rng = random.Random(0)
    chains = [ruin_chain(length, rng) for length in RUIN_LENGTHS]
    aut = reach_automaton()
    families = {
        "ruin": capture(lambda: [accepts(aut, chain) for chain in chains]),
        "seed1000": capture(lambda: solve_values(
            random_parity_game(random.Random(1000), max_configs=800, max_priority=5))),
    }
    print(f"{'family':<10}{'systems':>8}{'dim_max':>8}{'nonzeros':>10}{'best_s':>9}  sha256")
    for name, systems in families.items():
        seconds, digest = measure(systems, args.runs)
        nonzeros = sum(len(row) for rows, _ in systems for row in rows)
        dim_max = max(len(rhs) for _, rhs in systems)
        print(f"{name:<10}{len(systems):>8}{dim_max:>8}{nonzeros:>10}{seconds:>9.3f}  {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
