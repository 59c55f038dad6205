"""Command-line front end.

Subcommands: solve-game, solve-chain, verify, decide, paut accepts,
paut uniform, export-dot, oracle, selftest.  Exit codes: 0 for success
or a positive verdict, 1 for a negative verdict or bad certificate,
2 for input errors, 3 for exhausted budgets, 4 for violated internal
invariants (e.g. the determinacy identity) and any other unexpected
exception.  Every verdict is reproducible byte-for-byte given identical
arguments and input files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

# pautomata, generators and dot_export are imported by the subcommands that
# call them, so that every other subcommand starts without loading them.
from . import io_formats
from .budgets import DEFAULT_BUDGETS, Budgets
from .chains import monte_carlo_estimate, parity_measure
from .errors import (BudgetExceededError, InputFormatError,
                     InternalInvariantError, ObgError)
from .model import (ONE, ObligationGame, dual_game, embed_chain_as_game,
                    format_rational, parse_rational)
from .obligations import (ObligationValueReport, decide_value,
                          find_best_dependency, verify_dependency)
from .parity import oracle_pair_count, solve_parity, solve_parity_oracle

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from exc


_GAME_KINDS = ("game", "chain")


def _load_document(path: str, kinds: tuple[str, ...] = _GAME_KINDS
                   ) -> io_formats.GameDocument | io_formats.ChainDocument:
    """The game or chain document in ``path``, whose kind must be in ``kinds``.

    The parsers are looked up in ``io_formats`` at each call, so a wrapper
    put there after this module is imported sees every read.
    """
    text = _read(path)
    kind = io_formats.detect_kind(text)
    if kind not in kinds:
        raise InputFormatError(f"expected a {' or '.join(kinds)} document, got {kind!r}")
    if kind == "game":
        return io_formats.parse_game_document(text)
    return io_formats.parse_chain_document(text)


def _chain_priority(doc: io_formats.ChainDocument) -> tuple[int, ...]:
    if doc.priority is None:
        raise InputFormatError("chain file carries no priorities")
    return doc.priority


def _load_obligation_game(path: str, kinds: tuple[str, ...] = _GAME_KINDS) -> ObligationGame:
    """The game in ``path``; a chain with priorities is embedded as one."""
    doc = _load_document(path, kinds)
    if isinstance(doc, io_formats.GameDocument):
        return doc.game
    return embed_chain_as_game(doc.chain, _chain_priority(doc), doc.obligations)


def _strategy_json(game: ObligationGame, strategy) -> Optional[dict]:
    if strategy is None:
        return None
    return {game.names[v]: game.names[u] for v, u in strategy.choices}


def _report_json(report: ObligationValueReport) -> dict:
    game = report.game
    dep = io_formats.dependency_document_json(report.dependency, game)
    return {
        "values": {n: format_rational(report.values[i]) for i, n in enumerate(game.names)},
        "pre_values": {n: format_rational(report.pre_values[i]) for i, n in enumerate(game.names)},
        "fulfilled": sorted(game.names[v] for v in report.fulfilled),
        "dependency": dep["dependencies"],
        "strategies": {
            "player0": _strategy_json(report.reduced_game, report.reduced_solution.sigma),
            "player1": _strategy_json(report.reduced_game, report.reduced_solution.pi),
        },
    }


def _print_report(report: ObligationValueReport, fmt: str) -> None:
    if fmt == "json":
        print(io_formats.dumps(_report_json(report)), end="")
        return
    game = report.game
    rows = []
    for i, name in enumerate(game.names):
        ob = game.obligation[i]
        dep_cell = ""
        if ob is not None:
            row = report.dependency.get(i)
            dep_cell = "bottom" if row is None else \
                "{" + ", ".join(f"({game.names[u]},{m})" for u, m in sorted(row)) + "}"
        rows.append((name, game.owners[i].value, str(game.priority[i]),
                     ob.pretty() if ob else "-",
                     format_rational(report.values[i]),
                     format_rational(report.pre_values[i]),
                     dep_cell))
    header = ("configuration", "owner", "priority", "obligation", "value", "pre-value", "dependency")
    widths = [max(len(r[c]) for r in rows + [header]) for c in range(len(header))]
    for r in (header, *rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    for label, strategy in (("player0", report.reduced_solution.sigma),
                            ("player1", report.reduced_solution.pi)):
        if strategy is None:
            continue
        moves = _strategy_json(report.reduced_game, strategy)
        rendered = ", ".join(f"{a}->{b}" for a, b in moves.items()) if moves else "(no choices)"
        print(f"witness {label}: {rendered}")


def _budgets(args) -> Budgets:
    """The budgets a subcommand declares as flags; the rest keep their defaults."""
    return Budgets(**{f.name: getattr(args, f.name)
                      for f in fields(Budgets) if hasattr(args, f.name)})


def _print_stats(args, document: dict) -> None:
    """With ``--stats``, the solve counters as one canonical JSON line on stderr."""
    if args.stats:
        print(json.dumps(document, sort_keys=True, separators=(",", ":")), file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve_game(args) -> int:
    """``solve-game``, and ``solve-chain``, which accepts chain files only."""
    budgets = _budgets(args)
    game = _load_obligation_game(args.game, args.kinds)
    _, report = find_best_dependency(game, budgets=budgets,
                                     witnesses=not args.no_witnesses)
    _print_report(report, args.format)
    _print_stats(args, dict(report.stats))
    return EXIT_OK


def cmd_verify(args) -> int:
    game = _load_obligation_game(args.game)
    dep = io_formats.parse_dependency_document(_read(args.dependency), game)
    report = verify_dependency(game, dep)
    out = {
        "good": report.good,
        "condition1": report.condition1,
        "condition2": report.condition2,
        "condition3": report.condition3,
    }
    if report.dangling is not None:
        v, u = report.dangling
        out["dangling"] = [game.names[v], game.names[u]]
    if report.odd_cycle is not None:
        out["odd_cycle"] = [[game.names[a], game.names[b], m]
                            for a, b, m in report.odd_cycle]
    if report.failing is not None:
        v, value = report.failing
        out["failing"] = {"configuration": game.names[v],
                          "gamma_value": format_rational(value),
                          "obligation": game.obligation[v].pretty()}
    print(io_formats.dumps(out), end="")
    return EXIT_OK if report.good else EXIT_NO


def cmd_decide(args) -> int:
    budgets = _budgets(args)
    game = _load_obligation_game(args.game)
    config = game.index(args.config)
    threshold = parse_rational(args.threshold)
    decision = decide_value(game, config, args.cmp, threshold, budgets=budgets)
    out = {
        "query": {"configuration": args.config, "cmp": args.cmp,
                  "threshold": format_rational(threshold)},
        "verdict": decision.verdict,
        "value": format_rational(decision.value),
        "dependency": io_formats.dependency_document_json(
            decision.primal[0], game)["dependencies"],
        "dual_dependency": io_formats.dependency_document_json(
            decision.dual[0], decision.dual[1].game)["dependencies"],
    }
    print(io_formats.dumps(out), end="")
    _print_stats(args, {"primal": dict(decision.primal[1].stats),
                        "dual": dict(decision.dual[1].stats)})
    return EXIT_OK if decision.verdict else EXIT_NO


def cmd_paut(args) -> int:
    from .pautomata import accepts, format_formula, is_uniform

    budgets = _budgets(args)
    aut = io_formats.parse_automaton_document(_read(args.automaton))
    if args.paut_command == "uniform":
        uniform, witness = is_uniform(aut)
        out = {"uniform": uniform}
        if witness is not None:
            out["mixed_class"] = [format_formula(f) for f in witness]
        print(io_formats.dumps(out), end="")
        return EXIT_OK if uniform else EXIT_NO
    doc = io_formats.parse_chain_document(_read(args.chain))
    result = accepts(aut, doc.chain, budgets=budgets)
    out = {
        "accepted": result.accepted,
        "root": result.product.names[result.root],
        "product_size": len(result.product),
        "root_value": format_rational(result.report.values[result.root]),
    }
    print(io_formats.dumps(out), end="")
    _print_stats(args, dict(result.report.stats))
    return EXIT_OK if result.accepted else EXIT_NO


def cmd_export_dot(args) -> int:
    from . import dot_export

    if args.chain is not None:
        from .pautomata import build_product_game

        aut = io_formats.parse_automaton_document(_read(args.input))
        doc = io_formats.parse_chain_document(_read(args.chain))
        product, _ = build_product_game(aut, doc.chain)
        print(dot_export.export_game_dot(product), end="")
        return EXIT_OK
    doc = _load_document(args.input)
    if isinstance(doc, io_formats.GameDocument):
        print(dot_export.export_game_dot(doc.game), end="")
    else:
        print(dot_export.export_chain_dot(doc.chain, doc.priority, doc.obligations), end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    budgets = _budgets(args)
    doc = _load_document(args.input)
    if isinstance(doc, io_formats.GameDocument):
        game = doc.game
        if any(o is not None for o in game.obligation):
            raise InputFormatError(
                "the oracle compares parity solvers; strip obligations first")
        fast = solve_parity(game)
        slow = solve_parity_oracle(game, budgets=budgets)
        agree = fast == slow
        out = {
            "strategy_pairs": oracle_pair_count(game),
            "values_agree": fast.values == slow.values,
            "witnesses_agree": (fast.sigma, fast.pi) == (slow.sigma, slow.pi),
            "values": {n: format_rational(v) for n, v in zip(game.names, fast.values)},
        }
        print(io_formats.dumps(out), end="")
        return EXIT_OK if agree else EXIT_INVARIANT
    priority = _chain_priority(doc)
    exact = parity_measure(doc.chain.succ, priority)
    estimate = monte_carlo_estimate(doc.chain, priority, samples=args.samples, seed=args.seed)
    out = {
        "exact": format_rational(exact[doc.chain.initial]),
        "estimate": estimate.estimate,
        "wilson_99": [estimate.wilson_low, estimate.wilson_high],
        "samples": estimate.samples,
        "seed": estimate.seed,
        "inside_interval": estimate.contains(exact[doc.chain.initial]),
    }
    print(io_formats.dumps(out), end="")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .generators import random_game, random_parity_game

    budgets = _budgets(args)
    if args.rounds < 1:
        raise InputFormatError(f"--rounds must be positive, got {args.rounds}")
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures += 1

    fixtures = Path(__file__).resolve().parents[2] / "fixtures"
    fig6 = fixtures / "fig6.game.json"
    if fig6.exists():
        game = _load_obligation_game(str(fig6))
        _, report = find_best_dependency(game, budgets=budgets, witnesses=False)
        check("fig6 values are all 1", all(v == ONE for v in report.values))
    else:
        print("SKIP  fixtures not found next to the package")
    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.rounds):
        game = random_game(rng)
        _, rep = find_best_dependency(game, budgets=budgets, witnesses=False)
        _, dual_rep = find_best_dependency(dual_game(game), budgets=budgets,
                                           witnesses=False)
        ok &= all(a + b == ONE for a, b in zip(rep.values, dual_rep.values))
    check(f"determinacy on {args.rounds} random obligation games", ok)
    ok = True
    for _ in range(args.rounds):
        game = random_parity_game(rng)
        ok &= solve_parity(game) == solve_parity_oracle(game, budgets=budgets)
    check(f"oracle equivalence on {args.rounds} random parity games", ok)
    return EXIT_OK if failures == 0 else EXIT_NO


# ---------------------------------------------------------------------------
# Argument parsing


_BUDGET_HELP = {
    "max_obligations": "dependency-search budget",
    "max_priority": "largest priority the dependency search accepts",
    "max_strategy_pairs": "strategy-pair budget of the brute-force oracle",
    "max_dependency_nodes": "monitor-game test budget of the dependency search",
}
_SEARCH_BUDGETS = ("max_obligations", "max_priority", "max_dependency_nodes")


def _add_budget_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """One ``--max-...`` flag per named ``Budgets`` field, defaulting to its default."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=int,
                            default=getattr(DEFAULT_BUDGETS, name),
                            help=_BUDGET_HELP[name] + " (default %(default)s)")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    _add_budget_flags(parser, *_SEARCH_BUDGETS)
    parser.add_argument("--stats", action="store_true",
                        help="print the dependency search's counters as JSON on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obg",
        description="Exact solver for stochastic parity games with obligations "
                    "and p-automaton acceptance of Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, metavar, kinds, help_text in (
            ("solve-game", "game", _GAME_KINDS, "solve a game file"),
            ("solve-chain", "chain", ("chain",),
             "solve a chain file with priorities/obligations")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("game", metavar=metavar)
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--no-witnesses", action="store_true")
        _add_search_flags(p)
        p.set_defaults(func=cmd_solve_game, kinds=kinds)

    p = sub.add_parser("verify", help="check a dependency certificate")
    p.add_argument("game")
    p.add_argument("dependency")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decide", help="decide value(configuration) cmp threshold")
    p.add_argument("game")
    p.add_argument("--config", required=True)
    p.add_argument("--cmp", choices=(">=", ">"), required=True)
    p.add_argument("--threshold", required=True)
    _add_search_flags(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("paut", help="p-automaton commands")
    psub = p.add_subparsers(dest="paut_command", required=True)
    pa = psub.add_parser("accepts", help="does the automaton accept the chain?")
    pa.add_argument("automaton")
    pa.add_argument("chain")
    _add_search_flags(pa)
    pa.set_defaults(func=cmd_paut)
    pu = psub.add_parser("uniform", help="is the automaton uniform?")
    pu.add_argument("automaton")
    pu.set_defaults(func=cmd_paut)

    p = sub.add_parser("export-dot", help="render a game, chain or product as DOT")
    p.add_argument("input", help="game or chain file (automaton file when --chain is given)")
    p.add_argument("chain", nargs="?", default=None,
                   help="chain file; renders the automaton x chain product")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("oracle", help="cross-check the fast solver against the oracle")
    p.add_argument("input", help="obligation-free game file, or chain file for Monte-Carlo")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    _add_budget_flags(p, "max_strategy_pairs")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="run the bundled quick checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=10)
    _add_budget_flags(p, *_BUDGET_HELP)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ObgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must never exit 1, the "verdict false" code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
