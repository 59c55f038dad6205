"""Deterministic DOT export of chains, games and product games.

Node shapes follow the usual drawing convention: diamonds for Player-0
configurations, boxes for Player 1, circles for probabilistic ones.
Priorities and obligations are rendered in the labels; output bytes
depend only on the input.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .model import (LabeledMarkovChain, Obligation, ObligationGame, Owner,
                    format_rational)

_SHAPES = {
    Owner.PLAYER0: "diamond",
    Owner.PLAYER1: "box",
    Owner.PROBABILISTIC: "circle",
}


def _quote(*parts: str) -> str:
    """One quoted DOT string of `parts`, on separate lines of a label
    (DOT's \\n escape); backslashes and quotes in the parts are escaped."""
    return '"' + "\\n".join(p.replace("\\", "\\\\").replace('"', '\\"')
                            for p in parts) + '"'


def export_game_dot(game: ObligationGame) -> str:
    lines = ["digraph G {", "  rankdir=LR;"]
    for i, name in enumerate(game.names):
        parts = [name, f"c={game.priority[i]}"]
        ob = game.obligation[i]
        if ob is not None:
            parts.append(ob.pretty())
        lines.append(f"  {_quote(name)} [shape={_SHAPES[game.owners[i]]}, label={_quote(*parts)}];")
    for i in range(len(game)):
        if game.owners[i] is Owner.PROBABILISTIC:
            for t, p in game.kernel_row(i):
                lines.append(f"  {_quote(game.names[i])} -> {_quote(game.names[t])}"
                             f" [label={_quote(format_rational(p))}];")
        else:
            for t in game.succ[i]:
                lines.append(f"  {_quote(game.names[i])} -> {_quote(game.names[t])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_chain_dot(mc: LabeledMarkovChain,
                     priority: Optional[Sequence[int]] = None,
                     obligations: Optional[Sequence[Optional[Obligation]]] = None) -> str:
    lines = ["digraph G {", "  rankdir=LR;"]
    for i, name in enumerate(mc.names):
        parts = [name]
        if mc.labels[i]:
            parts.append("{" + ",".join(sorted(mc.labels[i])) + "}")
        if priority is not None:
            parts.append(f"c={priority[i]}")
        if obligations is not None and obligations[i] is not None:
            parts.append(obligations[i].pretty())
        shape = "doublecircle" if i == mc.initial else "circle"
        lines.append(f"  {_quote(name)} [shape={shape}, label={_quote(*parts)}];")
    for i, name in enumerate(mc.names):
        for t, p in mc.succ[i]:
            lines.append(f"  {_quote(name)} -> {_quote(mc.names[t])}"
                         f" [label={_quote(format_rational(p))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
