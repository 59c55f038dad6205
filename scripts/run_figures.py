"""Reproduction harness: solve every bundled fixture and print the values.

Run from the repository root:

    python3 scripts/run_figures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obg import (embed_chain_as_game, find_best_dependency,  # noqa: E402
                 format_rational, io_formats)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

GAMES = ["fig5.game.json", "fig6.game.json", "fig6_s4_geq.game.json",
         "fig6_s4_gt.game.json"]
CHAINS = ["fig1.chain.json", "fig2_all_winning.chain.json",
          "fig2_losing_path.chain.json", "fig4.chain.json"]


def show(name: str, game) -> None:
    dep, report = find_best_dependency(game, witnesses=False)
    cells = []
    for i, config in enumerate(game.names):
        value = format_rational(report.values[i])
        if game.obligation[i] is not None:
            value += f" (pre {format_rational(report.pre_values[i])})"
        cells.append(f"{config}={value}")
    print(f"{name:32s} {'  '.join(cells)}")
    rows = {game.names[v]: row for v, row in dep.entries}
    if rows:
        rendered = []
        for config, row in rows.items():
            if row is None:
                rendered.append(f"{config}: bottom")
            else:
                pairs = ", ".join(f"({game.names[u]},{i})" for u, i in row)
                rendered.append(f"{config}: {{{pairs}}}")
        print(f"{'':32s} certificate: {'; '.join(rendered)}")


def main() -> None:
    for name in CHAINS:
        doc = io_formats.parse_chain_document((FIXTURES / name).read_text())
        game = embed_chain_as_game(doc.chain, doc.priority, doc.obligations)
        show(name, game)
    for name in GAMES:
        game = io_formats.parse_game_document((FIXTURES / name).read_text()).game
        show(name, game)


if __name__ == "__main__":
    main()
