"""Bit-exact JSON file formats: chains, games, dependencies, automata.

All documents carry ``"format": "obg-v1"`` and a ``"kind"`` key.
Rationals are strings like ``"1/2"``, ``"0"``, ``"1"``; bare JSON
numbers are rejected to prevent silent float ingestion.  Serialization
is canonical (fixed key order, two-space indent, trailing newline), so
serialize - parse - serialize is byte-identical.  No JSON object may
name a key twice, no transition table a letter twice, and automaton
formulas nest at most ``MAX_FORMULA_DEPTH`` deep.

A document may carry a free-form ``"provenance"`` object describing
which of its numbers are externally stated and which were derived; it
is preserved verbatim on round-trips and ignored by the solvers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Container, Mapping, Optional, Sequence

from .errors import InputFormatError
from .model import (GE, GT, LabeledMarkovChain, Obligation, ObligationGame,
                    Owner, format_rational, make_game, parse_rational,
                    require_int, validate, validate_chain)
from .obligations import Dependency

if TYPE_CHECKING:  # the automaton functions import pautomata when called
    from .pautomata import Formula, PAutomaton

FORMAT = "obg-v1"

# Formulas are hashed, printed and serialized recursively, so their depth
# is bounded well inside the interpreter's recursion limit.
MAX_FORMULA_DEPTH = 200


@dataclass(frozen=True)
class ChainDocument:
    chain: LabeledMarkovChain
    priority: Optional[tuple[int, ...]]
    obligations: tuple[Optional[Obligation], ...]
    provenance: Optional[dict]

    def priority_map(self) -> dict[str, int]:
        if self.priority is None:
            raise InputFormatError("chain file carries no priorities")
        return {n: p for n, p in zip(self.chain.names, self.priority)}

    def obligation_map(self) -> dict[str, Obligation]:
        return {n: o for n, o in zip(self.chain.names, self.obligations) if o is not None}


@dataclass(frozen=True)
class GameDocument:
    game: ObligationGame
    provenance: Optional[dict]


def _identifier(entry: Any, what: str) -> str:
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
        raise InputFormatError(f'every {what} needs a string "id"')
    return entry["id"]


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for key in keys if keys.count(key) > 1)
        raise InputFormatError(f"JSON object names the key {twice!r} twice")
    return out


def loads(text: str) -> dict:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise InputFormatError("JSON nested too deeply")
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise InputFormatError("JSON integer literal too long")
    if not isinstance(data, dict):
        raise InputFormatError("top-level JSON value must be an object")
    if data.get("format") != FORMAT:
        raise InputFormatError(f'missing or unsupported "format" (expected "{FORMAT}")')
    return data


def dumps(document: Mapping[str, Any]) -> str:
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def _parse_obligation(raw: Any, where: str) -> Optional[Obligation]:
    if raw is None:
        return None
    if not isinstance(raw, dict) or set(raw) != {"cmp", "threshold"}:
        raise InputFormatError(f'{where}: obligation must be null or {{"cmp", "threshold"}}')
    if raw["cmp"] not in (GE, GT):
        raise InputFormatError(f"{where}: obligation comparator must be '>=' or '>'")
    return Obligation(raw["cmp"], parse_rational(raw["threshold"]))


def _obligation_json(ob: Optional[Obligation]) -> Any:
    if ob is None:
        return None
    return {"cmp": ob.cmp, "threshold": format_rational(ob.threshold)}


def _parse_row(raw: Any, known: Container[str], where: str) -> dict[str, Fraction]:
    if not isinstance(raw, dict) or not raw:
        raise InputFormatError(f"{where}: transition row must be a non-empty object")
    row = {}
    for target, p in raw.items():
        if target not in known:
            raise InputFormatError(f"{where}: unknown target {target!r}")
        row[target] = parse_rational(p)
    return row


# ---------------------------------------------------------------------------
# Chains


def parse_chain_document(text: str) -> ChainDocument:
    data = loads(text)
    if data.get("kind") != "chain":
        raise InputFormatError('expected "kind": "chain"')
    locations = data.get("locations")
    if not isinstance(locations, list) or not locations:
        raise InputFormatError('"locations" must be a non-empty list')
    names = []
    labels = {}
    priorities = []
    obligations = []
    has_priorities = False
    for entry in locations:
        name = _identifier(entry, "location")
        names.append(name)
        raw_labels = entry.get("labels", [])
        if not (isinstance(raw_labels, list) and all(isinstance(a, str) for a in raw_labels)):
            raise InputFormatError(f"location {name}: labels must be an array of strings")
        labels[name] = sorted(raw_labels)
        if "priority" in entry and entry["priority"] is not None:
            has_priorities = True
            priority = require_int(entry["priority"], f"location {name}: priority")
            if priority < 0:
                raise InputFormatError(f"location {name} has negative priority {priority}")
            priorities.append(priority)
        else:
            priorities.append(None)
        obligations.append(_parse_obligation(entry.get("obligation"), f"location {name}"))
    if has_priorities and any(p is None for p in priorities):
        raise InputFormatError("either all locations carry a priority or none does")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise InputFormatError("duplicate location ids")
    transitions = data.get("transitions")
    if not isinstance(transitions, dict):
        raise InputFormatError('"transitions" must be an object')
    rows = {}
    for name in names:
        if name not in transitions:
            raise InputFormatError(f"no transition row for location {name}")
        rows[name] = _parse_row(transitions[name], index, f"transitions of {name}")
    initial = data.get("initial")
    if not isinstance(initial, str) or initial not in index:
        raise InputFormatError('"initial" must name a location')
    chain = LabeledMarkovChain(
        names=tuple(names),
        succ=tuple(tuple(sorted((index[t], p) for t, p in rows[n].items()))
                   for n in names),
        labels=tuple(frozenset(labels[n]) for n in names),
        initial=index[initial],
    )
    problems = validate_chain(chain)
    if problems:
        raise InputFormatError("invalid chain: " + "; ".join(problems))
    return ChainDocument(
        chain=chain,
        priority=tuple(priorities) if has_priorities else None,
        obligations=tuple(obligations),
        provenance=data.get("provenance"),
    )


def chain_document_json(doc: ChainDocument) -> dict:
    mc = doc.chain
    locations = []
    for i, name in enumerate(mc.names):
        entry: dict[str, Any] = {"id": name, "labels": sorted(mc.labels[i])}
        if doc.priority is not None:
            entry["priority"] = doc.priority[i]
        entry["obligation"] = _obligation_json(doc.obligations[i])
        locations.append(entry)
    out: dict[str, Any] = {
        "format": FORMAT,
        "kind": "chain",
        "locations": locations,
        "initial": mc.names[mc.initial],
        "transitions": {
            name: {mc.names[t]: format_rational(p) for t, p in mc.succ[i]}
            for i, name in enumerate(mc.names)
        },
    }
    if doc.provenance is not None:
        out["provenance"] = doc.provenance
    return out


def serialize_chain_document(doc: ChainDocument) -> str:
    return dumps(chain_document_json(doc))


# ---------------------------------------------------------------------------
# Games

_OWNERS = {o.value: o for o in Owner}


def parse_game_document(text: str) -> GameDocument:
    data = loads(text)
    if data.get("kind") != "game":
        raise InputFormatError('expected "kind": "game"')
    configurations = data.get("configurations")
    if not isinstance(configurations, list) or not configurations:
        raise InputFormatError('"configurations" must be a non-empty list')
    configs, names = [], []
    for entry in configurations:
        name = _identifier(entry, "configuration")
        names.append(name)
        owner = entry.get("owner")
        if not isinstance(owner, str) or owner not in _OWNERS:
            raise InputFormatError(f"configuration {name}: owner must be one of {sorted(_OWNERS)}")
        if "priority" not in entry:
            raise InputFormatError(f"configuration {name}: missing priority")
        configs.append((name, _OWNERS[owner],
                        require_int(entry["priority"], f"configuration {name}: priority"),
                        _parse_obligation(entry.get("obligation"), f"configuration {name}")))
    known = set(names)
    if len(known) != len(names):
        raise InputFormatError("duplicate configuration ids")
    edges_raw = data.get("edges")
    if not isinstance(edges_raw, list):
        raise InputFormatError('"edges" must be a list of [source, target] pairs')
    for pair in edges_raw:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputFormatError("every edge must be a [source, target] pair")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str)) or a not in known or b not in known:
            raise InputFormatError(f"edge {pair} mentions an unknown configuration")
    kernel_raw = data.get("kernel", {})
    if not isinstance(kernel_raw, dict):
        raise InputFormatError('"kernel" must be an object')
    kernel = {}
    for name, row in kernel_raw.items():
        if name not in known:
            raise InputFormatError(f"kernel mentions unknown configuration {name!r}")
        kernel[name] = _parse_row(row, known, f"kernel of {name}")
    game = make_game(configs, edges_raw, kernel)
    problems = validate(game)
    if problems:
        raise InputFormatError("invalid game: " + "; ".join(problems))
    return GameDocument(game=game, provenance=data.get("provenance"))


def game_document_json(doc: GameDocument) -> dict:
    game = doc.game
    out: dict[str, Any] = {
        "format": FORMAT,
        "kind": "game",
        "configurations": [
            {"id": name,
             "owner": game.owners[i].value,
             "priority": game.priority[i],
             "obligation": _obligation_json(game.obligation[i])}
            for i, name in enumerate(game.names)
        ],
        "edges": [[game.names[a], game.names[b]]
                  for a in range(len(game)) for b in game.succ[a]],
        "kernel": {
            game.names[i]: {game.names[t]: format_rational(p)
                            for t, p in game.kernel_row(i)}
            for i in range(len(game)) if game.owners[i] is Owner.PROBABILISTIC
        },
    }
    if doc.provenance is not None:
        out["provenance"] = doc.provenance
    return out


def serialize_game_document(doc: GameDocument) -> str:
    return dumps(game_document_json(doc))


# ---------------------------------------------------------------------------
# Dependencies.  null is bottom; [] is the empty set; the distinction is
# semantically load-bearing.


def parse_dependency_document(text: str, game: ObligationGame) -> Dependency:
    data = loads(text)
    if data.get("kind") != "dependency":
        raise InputFormatError('expected "kind": "dependency"')
    deps = data.get("dependencies")
    if not isinstance(deps, dict):
        raise InputFormatError('"dependencies" must be an object')
    mapping: dict[int, Optional[list[tuple[int, int]]]] = {}
    for name, row in deps.items():
        v = game.index(name)
        if row is None:
            mapping[v] = None
            continue
        if not isinstance(row, list):
            raise InputFormatError(f"dependency of {name} must be null or a list of pairs")
        pairs = []
        for item in row:
            if not (isinstance(item, list) and len(item) == 2):
                raise InputFormatError(f"dependency of {name}: entries must be [target, priority] pairs")
            pairs.append((game.index(item[0]),
                          require_int(item[1], f"dependency of {name}: priority")))
        mapping[v] = pairs
    return Dependency.from_mapping(game, mapping)  # an omitted obligation is bottom


def dependency_document_json(dep: Dependency, game: ObligationGame) -> dict:
    deps: dict[str, Any] = {}
    for v, row in dep.entries:
        if row is None:
            deps[game.names[v]] = None
        else:
            deps[game.names[v]] = [[game.names[u], i] for u, i in row]
    return {"format": FORMAT, "kind": "dependency", "dependencies": deps}


def serialize_dependency_document(dep: Dependency, game: ObligationGame) -> str:
    return dumps(dependency_document_json(dep, game))


# ---------------------------------------------------------------------------
# p-automata


def _parse_formula(raw: Any, where: str, depth: int = 1) -> Formula:
    from .pautomata import FF, TT, And, Or, StateAtom, Term

    if depth > MAX_FORMULA_DEPTH:
        raise InputFormatError(f"{where}: formula nested deeper than {MAX_FORMULA_DEPTH}")
    if not (isinstance(raw, list) and raw and isinstance(raw[0], str)):
        raise InputFormatError(f"{where}: formula nodes are non-empty arrays headed by a tag")
    tag = raw[0]
    if tag in ("state", "term") and len(raw) > 1 and not isinstance(raw[1], str):
        raise InputFormatError(f"{where}: state names in formulas must be strings")
    if tag == "tt":
        return TT
    if tag == "ff":
        return FF
    if tag == "state":
        if len(raw) != 2:
            raise InputFormatError(f"{where}: [\"state\", name]")
        return StateAtom(raw[1])
    if tag == "term":
        if len(raw) != 4 or raw[2] not in (GE, GT):
            raise InputFormatError(f"{where}: [\"term\", state, \">=\"|\">\", bound]")
        return Term(raw[1], raw[2], parse_rational(raw[3]))
    if tag in ("and", "or"):
        if len(raw) != 3:
            raise InputFormatError(f"{where}: [\"{tag}\", left, right]")
        left = _parse_formula(raw[1], where, depth + 1)
        right = _parse_formula(raw[2], where, depth + 1)
        return And(left, right) if tag == "and" else Or(left, right)
    raise InputFormatError(f"{where}: unknown formula tag {tag!r}")


def formula_json(f: Formula) -> list:
    from .pautomata import FF, TT, And, Or, StateAtom, Term

    if f == TT:
        return ["tt"]
    if f == FF:
        return ["ff"]
    if isinstance(f, StateAtom):
        return ["state", f.state]
    if isinstance(f, Term):
        return ["term", f.state, f.cmp, format_rational(f.bound)]
    if isinstance(f, And):
        return ["and", formula_json(f.left), formula_json(f.right)]
    if isinstance(f, Or):
        return ["or", formula_json(f.left), formula_json(f.right)]
    raise AssertionError(f"unknown formula {f!r}")


def _letter_key(letter: frozenset[str]) -> str:
    return ",".join(sorted(letter))


def _parse_letter(key: str, propositions: Sequence[str], where: str) -> frozenset[str]:
    if key == "":
        return frozenset()
    parts = key.split(",")
    for p in parts:
        if p not in propositions:
            raise InputFormatError(f"{where}: unknown proposition {p!r}")
    return frozenset(parts)


def parse_automaton_document(text: str) -> PAutomaton:
    from .pautomata import FF, PAutomaton, validate_automaton

    data = loads(text)
    if data.get("kind") != "pautomaton":
        raise InputFormatError('expected "kind": "pautomaton"')
    propositions = data.get("propositions")
    if not (isinstance(propositions, list) and all(isinstance(p, str) for p in propositions)):
        raise InputFormatError('"propositions" must be an array of strings')
    states_raw = data.get("states")
    if not isinstance(states_raw, list) or not states_raw:
        raise InputFormatError('"states" must be a non-empty list')
    states, priority = [], {}
    for entry in states_raw:
        name = _identifier(entry, "state")
        if "priority" not in entry:
            raise InputFormatError(f"state {name}: missing priority")
        if name in priority:
            raise InputFormatError(f"duplicate state id {name}")
        states.append(name)
        priority[name] = require_int(entry["priority"], f"state {name}: priority")
    transitions = data.get("transitions", {})
    if not isinstance(transitions, dict):
        raise InputFormatError('"transitions" must be an object')
    cases: dict[str, dict[frozenset[str], Formula]] = {}
    default: dict[str, Formula] = {q: FF for q in states}
    for q, table in transitions.items():
        if q not in states:
            raise InputFormatError(f"transitions mention unknown state {q!r}")
        if not isinstance(table, dict):
            raise InputFormatError(f"transitions of {q} must be an object")
        if "default" in table:
            default[q] = _parse_formula(table["default"], f"default of {q}")
        table_cases = table.get("cases", {})
        if not isinstance(table_cases, dict):
            raise InputFormatError(f"cases of {q} must be an object")
        cases[q] = {}
        for key, raw in table_cases.items():
            letter = _parse_letter(key, propositions, f"transition of {q}")
            if letter in cases[q]:
                raise InputFormatError(f"transition of {q} names the letter "
                                       f"{_letter_key(letter)!r} twice")
            cases[q][letter] = _parse_formula(raw, f"transition of {q} under {key!r}")
    initial = _parse_formula(data.get("initial"), "initial condition")
    aut = PAutomaton(propositions=tuple(propositions), states=tuple(states),
                     priority=priority, cases=cases, default=default,
                     initial=initial)
    problems = validate_automaton(aut)
    if problems:
        raise InputFormatError("invalid automaton: " + "; ".join(problems))
    return aut


def automaton_document_json(aut: PAutomaton, provenance: Optional[dict] = None) -> dict:
    transitions: dict[str, Any] = {}
    for q in aut.states:
        table: dict[str, Any] = {"default": formula_json(aut.default[q])}
        if aut.cases.get(q):
            table["cases"] = {
                _letter_key(letter): formula_json(formula)
                for letter, formula in sorted(aut.cases[q].items(),
                                              key=lambda kv: _letter_key(kv[0]))
            }
        transitions[q] = table
    out: dict[str, Any] = {
        "format": FORMAT,
        "kind": "pautomaton",
        "propositions": list(aut.propositions),
        "states": [{"id": q, "priority": aut.priority[q]} for q in aut.states],
        "initial": formula_json(aut.initial),
        "transitions": transitions,
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def serialize_automaton_document(aut: PAutomaton, provenance: Optional[dict] = None) -> str:
    return dumps(automaton_document_json(aut, provenance))


# ---------------------------------------------------------------------------
# Kind sniffing for the CLI


def detect_kind(text: str) -> str:
    data = loads(text)
    kind = data.get("kind")
    if kind not in ("chain", "game", "dependency", "pautomaton"):
        raise InputFormatError(f'unknown document kind {kind!r}')
    return kind
