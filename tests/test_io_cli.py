import ast
import contextlib
import copy
import functools
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from obg import Budgets, InputFormatError, io_formats
from obg.cli import _budgets, build_parser, main
from obg.dot_export import export_chain_dot, export_game_dot
from obg.model import Owner, make_chain, make_game

from conftest import FIXTURES, fixture_text, load_chain_doc, load_game

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))


def reserialize(text: str) -> str:
    kind = io_formats.detect_kind(text)
    if kind == "chain":
        return io_formats.serialize_chain_document(io_formats.parse_chain_document(text))
    if kind == "game":
        return io_formats.serialize_game_document(io_formats.parse_game_document(text))
    if kind == "pautomaton":
        return io_formats.serialize_automaton_document(
            io_formats.parse_automaton_document(text),
            io_formats.loads(text).get("provenance"))
    if kind == "dependency":
        game = load_game("fig6.game.json")
        dep = io_formats.parse_dependency_document(text, game)
        return io_formats.serialize_dependency_document(dep, game)
    raise AssertionError(kind)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_is_byte_identical(name):
    text = fixture_text(name)
    assert reserialize(text) == text


def test_bare_json_numbers_are_rejected():
    text = fixture_text("fig6.game.json")
    data = json.loads(text)
    data["kernel"]["s5"]["s1"] = 1.0
    with pytest.raises(InputFormatError):
        io_formats.parse_game_document(json.dumps(data))


def test_unknown_format_is_rejected():
    with pytest.raises(InputFormatError):
        io_formats.loads('{"format": "obg-v2", "kind": "game"}')


def test_malformed_json_reports_line_and_column():
    with pytest.raises(InputFormatError) as err:
        io_formats.loads('{\n  "format": }')
    assert "line 2" in str(err.value)


GAME_MUTATIONS = [
    lambda d: d["kernel"]["s1"].__setitem__("s2", "3/4"),      # row sum
    lambda d: d["kernel"]["s1"].__setitem__("s4", "1/4"),      # kernel off-edge
    lambda d: d["edges"].remove(["s5", "s1"]),                 # dead kernel edge
    lambda d: d["configurations"][0].__setitem__("owner", "player2"),
    lambda d: d["configurations"][0]["obligation"].__setitem__("threshold", "5/4"),
    lambda d: d["configurations"][0].__setitem__("id", "s2"),  # duplicate id
    lambda d: d["configurations"][0].__setitem__("owner", ["player0"]),
    lambda d: d["configurations"][0].__setitem__("owner", {}),
]


@pytest.mark.parametrize("mutate", GAME_MUTATIONS)
def test_each_game_mutation_is_rejected(mutate):
    data = json.loads(fixture_text("fig6.game.json"))
    mutate(data)
    with pytest.raises(InputFormatError):
        io_formats.parse_game_document(json.dumps(data))


CHAIN_MUTATIONS = [
    lambda d: d["transitions"]["s1"].__setitem__("s2", "1/4"),
    lambda d: d["transitions"].__setitem__("s2", {}),
    lambda d: d.__setitem__("initial", "nowhere"),
    lambda d: d["locations"][1]["obligation"].__setitem__("cmp", "=="),
]


@pytest.mark.parametrize("mutate", CHAIN_MUTATIONS)
def test_each_chain_mutation_is_rejected(mutate):
    data = json.loads(fixture_text("fig1.chain.json"))
    mutate(data)
    with pytest.raises(InputFormatError):
        io_formats.parse_chain_document(json.dumps(data))


def test_dependency_null_versus_empty_is_preserved():
    game = load_game("fig6_s4_geq.game.json")
    text = io_formats.dumps({
        "format": "obg-v1", "kind": "dependency",
        "dependencies": {"s1": [], "s4": None}})
    dep = io_formats.parse_dependency_document(text, game)
    assert dep.get(game.index("s1")) == frozenset()
    assert dep.get(game.index("s4")) is None
    assert io_formats.serialize_dependency_document(dep, game) == text


# ---------------------------------------------------------------------------
# CLI


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def test_cli_solve_game_table(capsys):
    assert main(["solve-game", fixture_path("fig6.game.json"),
                 "--no-witnesses"]) == 0
    out = capsys.readouterr().out
    assert "s1" in out and "3/4" in out


def test_cli_solve_chain_json_values(capsys):
    assert main(["solve-chain", fixture_path("fig2_losing_path.chain.json"),
                 "--format", "json", "--no-witnesses"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == {"s1": "1/2", "s2": "0", "s3": "1"}


def test_cli_outputs_are_reproducible(capsys):
    args = ["solve-game", fixture_path("fig5.game.json"), "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


REPO = Path(__file__).resolve().parents[1]

# Runs each command line given as a JSON list of argument lists through
# obg.cli.main and prints its exit code and stdout.
README_RUNNER = """
import contextlib, io, json, sys
from obg.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(argv, code)
    print(out.getvalue())
"""


def readme_commands() -> list[list[str]]:
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("obg ")]


def test_readme_commands_are_reproducible_across_hash_seeds():
    commands = readme_commands()
    assert len(commands) >= 10
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", README_RUNNER, json.dumps(commands)],
                              capture_output=True, env=env, cwd=REPO, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_stats_flag_changes_only_stderr(monkeypatch):
    monkeypatch.chdir(REPO)  # README paths are relative to the repository
    stats_commands = {"solve-game", "solve-chain", "decide", "accepts"}
    commands = [argv for argv in readme_commands() if stats_commands & set(argv[:2])]
    assert len(commands) == 4
    false_verdict = ["decide", fixture_path("fig2_losing_path.chain.json"),
                     "--config", "s1", "--cmp", ">", "--threshold", "1/2"]
    tripped = ["solve-game", fixture_path("fig5.game.json"), "--max-dependency-nodes", "1"]
    counters = ["lifting_tests", "lifts", "memo_hits", "monitor_solves", "settled_answers",
                "settled_solves"]
    for argv, exit_code in [(argv, 0) for argv in commands] + [(false_verdict, 1), (tripped, 3)]:
        code, out, err = run_main(argv)
        stats_code, stats_out, stats_err = run_main(argv + ["--stats"])
        assert (stats_code, stats_out) == (code, out) and code == exit_code, argv
        if code == 3:  # no solve finished, so there are no counters
            assert stats_err == err and err.startswith("budget exceeded:")
            continue
        assert err == ""
        document = json.loads(stats_err)
        assert stats_err == json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        sides = [document["primal"], document["dual"]] if argv[0] == "decide" else [document]
        assert all(sorted(side) == counters and all(type(n) is int for n in side.values())
                   for side in sides), argv
        assert run_main(argv + ["--stats"])[2] == stats_err


def test_cli_verify_good_and_bad(capsys):
    assert main(["verify", fixture_path("fig6.game.json"),
                 fixture_path("fig6.dependency.json")]) == 0
    # tightening s4's obligation makes the same certificate insufficient
    assert main(["verify", fixture_path("fig6_s4_gt.game.json"),
                 fixture_path("fig6.dependency.json")]) == 1


def test_cli_decide_exit_codes():
    game = fixture_path("fig2_losing_path.chain.json")
    assert main(["decide", game, "--config", "s1", "--cmp", ">=",
                 "--threshold", "1/2"]) == 0
    assert main(["decide", game, "--config", "s1", "--cmp", ">",
                 "--threshold", "1/2"]) == 1


def test_cli_paut_commands():
    assert main(["paut", "uniform", fixture_path("until.paut.json")]) == 0
    assert main(["paut", "accepts", fixture_path("until.paut.json"),
                 fixture_path("two_location.chain.json")]) == 0
    assert main(["paut", "accepts", fixture_path("until.paut.json"),
                 fixture_path("three_location.chain.json")]) == 1


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "obg-v1", "kind": "game"')
    assert main(["solve-game", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_cli_budget_exit_code(monkeypatch, capsys):
    game = fixture_path("fig6_s4_geq.game.json")
    assert main(["solve-game", game, "--max-obligations", "1"]) == 3
    capsys.readouterr()
    assert main(["solve-game", game]) == 0
    plain = capsys.readouterr()
    # the arguments are the whole configuration: the environment sets no budget
    for name in ("MAX_OBLIGATIONS", "MAX_PRIORITY", "MAX_STRATEGY_PAIRS",
                 "MAX_DEPENDENCY_NODES"):
        monkeypatch.setenv("OBG_BUDGET_" + name, "1")
    assert main(["solve-game", game]) == 0
    assert capsys.readouterr() == plain


def test_cli_budget_flags_only_where_they_act():
    assert main(["solve-game", fixture_path("fig6.game.json"), "--max-priority", "3"]) == 3
    assert main(["oracle", fixture_path("parity_demo.game.json"),
                 "--max-strategy-pairs", "1"]) == 3
    with pytest.raises(SystemExit) as exc:
        main(["verify", fixture_path("fig6.game.json"),
              fixture_path("fig6.dependency.json"), "--max-priority", "4"])
    assert exc.value.code == 2


SEARCH_COMMANDS = [["solve-game", "g"], ["solve-chain", "c"],
                   ["decide", "g", "--config", "s", "--cmp", ">=", "--threshold", "1"],
                   ["paut", "accepts", "a", "c"], ["selftest"]]


def test_cli_dependency_node_budget_flag():
    # the flag bounds the search commands and is refused by the
    # certificate checker
    assert main(["solve-game", fixture_path("fig5.game.json"), "--no-witnesses",
                 "--max-dependency-nodes", "1"]) == 3
    assert main(["solve-game", fixture_path("fig5.game.json"), "--no-witnesses",
                 "--max-dependency-nodes", "20000"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", fixture_path("fig6.game.json"),
              fixture_path("fig6.dependency.json"), "--max-dependency-nodes", "5"])
    assert exc.value.code == 2
    for command in SEARCH_COMMANDS:
        args = build_parser().parse_args(command + ["--max-dependency-nodes", "7"])
        assert _budgets(args).max_dependency_nodes == 7


def test_budget_flags_show_and_parse_into_their_fields(capsys):
    parser = build_parser()
    for command in SEARCH_COMMANDS + [["oracle", "i"]]:
        assert _budgets(parser.parse_args(command)) == Budgets()
    with pytest.raises(SystemExit):
        parser.parse_args(["selftest", "--help"])
    shown = " ".join(capsys.readouterr().out.split())
    for field in fields(Budgets):
        flag = "--" + field.name.replace("_", "-")
        default = re.search(re.escape(f"{flag} {field.name.upper()} ")
                            + r"[^()]*\(default (\S+)\)", shown)
        assert default and default.group(1) == str(getattr(Budgets(), field.name))
        args = parser.parse_args(["selftest", flag, "7"])
        assert _budgets(args) == replace(Budgets(), **{field.name: 7})


def test_cli_internal_invariant_exit_code(monkeypatch, capsys):
    import obg.cli as cli_mod
    from obg.errors import InternalInvariantError

    def boom(*args, **kwargs):
        raise InternalInvariantError("synthetic")

    monkeypatch.setattr(cli_mod, "find_best_dependency", boom)
    assert main(["solve-game", fixture_path("fig6.game.json")]) == 4


def test_cli_oracle_on_game_and_chain(capsys):
    assert main(["oracle", fixture_path("parity_demo.game.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values_agree"] and data["witnesses_agree"]
    assert main(["oracle", fixture_path("fig4.chain.json"),
                 "--samples", "2000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["inside_interval"]


def test_cli_export_dot_determinism_and_content(capsys):
    assert main(["export-dot", fixture_path("fig6.game.json")]) == 0
    first = capsys.readouterr().out
    assert main(["export-dot", fixture_path("fig6.game.json")]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "≥3/4" in first
    assert '"s1"' in first


def test_cli_export_dot_product(capsys):
    assert main(["export-dot", fixture_path("until.paut.json"),
                 fixture_path("two_location.chain.json")]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and "diamond" in out


DOT_IDS = ["odd\\", 'say "hi"', "a\\b", 'q\\"', "\\n"]


def quoted_strings(line: str) -> list[str]:
    """The DOT quoted strings of `line`, unescaped, with the \\n escape
    as a line break; fails if a string is left open."""
    assert re.fullmatch(r'[^"]*("([^"\\]|\\.)*"[^"]*)*', line), line
    return [re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text)
            for text in re.findall(r'"((?:[^"\\]|\\.)*)"', line)]


def test_dot_ids_with_backslashes_and_quotes_round_trip():
    ring = list(zip(DOT_IDS, DOT_IDS[1:] + DOT_IDS[:1]))
    game = make_game([(name, Owner.PLAYER0, 1, None) for name in DOT_IDS], ring, {})
    chain = make_chain(DOT_IDS, {a: {b: Fraction(1)} for a, b in ring},
                       {name: [name] for name in DOT_IDS})
    for dot, label in ((export_game_dot(game), "{0}\nc=1"),
                       (export_chain_dot(chain), "{0}\n{{{0}}}")):
        lines = dot.splitlines()[2:-1]
        nodes = [quoted_strings(line) for line in lines if "->" not in line]
        assert nodes == [[name, label.format(name)] for name in DOT_IDS]
        edges = [quoted_strings(line) for line in lines if "->" in line]
        assert [tuple(strings[:2]) for strings in edges] == ring


def test_export_chain_dot_marks_obligations():
    doc = load_chain_doc("fig1.chain.json")
    dot = export_chain_dot(doc.chain, doc.priority, doc.obligations)
    assert "≥1/2" in dot


def test_cli_selftest(capsys):
    assert main(["selftest", "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_selftest_needs_at_least_one_round(rounds, capsys):
    assert main(["selftest", "--rounds", rounds]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --rounds must be positive, got {rounds}\n"


# Each entry: fixture, CLI arguments before it, and how to plant a bad value.
STRICT_TARGETS = {
    "game priority": ("fig6.game.json", ["solve-game"], ("configurations", "priority")),
    "game id": ("fig6.game.json", ["solve-game"], ("configurations", "id")),
    "chain priority": ("fig1.chain.json", ["solve-chain"], ("locations", "priority")),
    "chain id": ("fig1.chain.json", ["solve-chain"], ("locations", "id")),
    "automaton priority": ("until.paut.json", ["paut", "uniform"], ("states", "priority")),
    "automaton id": ("until.paut.json", ["paut", "uniform"], ("states", "id")),
    "dependency label": ("fig6.dependency.json",
                         ["verify", fixture_path("fig6.game.json")], ("dependencies", "s1")),
}
NOT_AN_INTEGER = ["x", [1], 1.5, True, "2"]
NOT_A_STRING = [["a"], 7, None]
NEGATIVE = -1  # an integer, but no priority
STRICT_CASES = [
    pytest.param(target, bad, id=f"{target}={json.dumps(bad)}")
    for target in STRICT_TARGETS
    for bad in (NOT_A_STRING if target.endswith(" id") else
                NOT_AN_INTEGER + [NEGATIVE] if target.endswith(" priority") else
                NOT_AN_INTEGER)]


@pytest.mark.parametrize("target,bad", STRICT_CASES)
def test_non_integer_priorities_and_non_string_ids_exit_2(tmp_path, capsys, target, bad):
    name, argv, (section, key) = STRICT_TARGETS[target]
    data = json.loads(fixture_text(name))
    if section == "dependencies":
        data[section][key][0][1] = bad
    else:
        data[section][0][key] = bad
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    expected = ('needs a string "id"' if target.endswith(" id") else
                "has negative priority -1" if bad == NEGATIVE else "must be an integer")
    assert err.startswith("error: ") and expected in err


def test_negative_priorities_exit_2_beyond_the_parsers(tmp_path):
    # STRICT_TARGETS runs solve-chain and paut uniform; these commands
    # read priorities too
    chain = json.loads(fixture_text("fig1.chain.json"))
    chain["locations"][0]["priority"] = -1
    automaton = json.loads(fixture_text("until.paut.json"))
    for state in automaton["states"]:
        state["priority"] = -3
    chain_path, automaton_path = tmp_path / "c.chain.json", tmp_path / "a.paut.json"
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    automaton_path.write_text(json.dumps(automaton), encoding="utf-8")
    name = chain["locations"][0]["id"]
    cases = [
        (["oracle", str(chain_path)], f"location {name} has negative priority -1"),
        (["export-dot", str(chain_path)], f"location {name} has negative priority -1"),
        (["paut", "accepts", str(automaton_path), fixture_path("two_location.chain.json")],
         "state q1 has negative priority -3"),
    ]
    for argv, message in cases:
        code, out, err = run_main(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and message in err, argv


# Each entry: fixture, CLI arguments before it, the path of the planted value,
# the value, and the expected message.
MALFORMED = {
    "labels=5": ("fig1.chain.json", ["solve-chain"], ("locations", 0, "labels"), 5,
                 "labels must be an array of strings"),
    'labels="ab"': ("fig1.chain.json", ["solve-chain"], ("locations", 0, "labels"), "ab",
                    "labels must be an array of strings"),
    "labels=[[1]]": ("fig1.chain.json", ["solve-chain"], ("locations", 0, "labels"), [[1]],
                     "labels must be an array of strings"),
    'state=["q1"]': ("until.paut.json", ["paut", "uniform"], ("initial",),
                     ["state", ["q1"]], "state names in formulas must be strings"),
    "term state=5": ("until.paut.json", ["paut", "uniform"], ("initial",),
                     ["term", 5, ">=", "1/2"], "state names in formulas must be strings"),
    'term state=["q2"]': ("until.paut.json", ["paut", "uniform"], ("initial",),
                          ["term", ["q2"], ">=", "1/2"],
                          "state names in formulas must be strings"),
    "cases=5": ("until.paut.json", ["paut", "uniform"], ("transitions", "q1", "cases"), 5,
                "cases of q1 must be an object"),
    'cases=["a"]': ("until.paut.json", ["paut", "uniform"], ("transitions", "q2", "cases"),
                    ["a"], "cases of q2 must be an object"),
    'propositions=[["a"]]': ("until.paut.json", ["paut", "uniform"], ("propositions",),
                             [["a"]], '"propositions" must be an array of strings'),
    "propositions=[5]": ("until.paut.json", ["paut", "uniform"], ("propositions",), [5],
                         '"propositions" must be an array of strings'),
    'state id="q1" twice': ("until.paut.json", ["paut", "uniform"], ("states", 1, "id"), "q1",
                            "duplicate state id q1"),
    'letter "a,b" twice': ("until.paut.json", ["paut", "uniform"], ("transitions", "q1", "cases"),
                           {"a,b": ["tt"], "b,a": ["ff"]},
                           "transition of q1 names the letter 'a,b' twice"),
    'letter "b,a" twice': ("until.paut.json", ["paut", "uniform"], ("transitions", "q1", "cases"),
                           {"b,a": ["ff"], "a,b": ["tt"]},
                           "transition of q1 names the letter 'a,b' twice"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_labels_and_formula_states_exit_2(tmp_path, capsys, case):
    name, argv, path_in_doc, bad, expected = MALFORMED[case]
    data = json.loads(fixture_text(name))
    *parents, last = path_in_doc
    holder = data
    for key in parents:
        holder = holder[key]
    holder[last] = bad
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err


def test_a_key_named_twice_exits_2(tmp_path):
    # json.loads lets the later row win; with it s would be worth 1
    text = ('{"format": "obg-v1", "kind": "chain", "initial": "s", "locations": '
            '[{"id": "s", "priority": 0}, {"id": "t", "priority": 0}], '
            '"transitions": {"s": {"s": "1"}, "t": {"t": "1"}, "s": {"t": "1"}}}')
    path = tmp_path / "twice.chain.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_main(["solve-chain", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: JSON object names the key 's' twice\n"
    with pytest.raises(InputFormatError, match="names the key 'id' twice"):
        io_formats.loads('{"format": "obg-v1", "a": [{"id": "x", "id": "y"}]}')


def test_json_nested_too_deeply_exits_2(tmp_path):
    path = tmp_path / "deep.game.json"
    path.write_text('{"format": "obg-v1", "kind": "game", "configurations": '
                    + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    code, out, err = run_main(["solve-game", str(path)])
    assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")


def test_json_integer_too_long_exits_2(tmp_path):
    # one digit over the interpreter's limit on integer literals
    data = json.loads(fixture_text("fig6.game.json"))
    data["configurations"][1]["priority"] = 0
    path = tmp_path / "long.game.json"
    path.write_text(json.dumps(data).replace('"priority": 0', '"priority": ' + "2" * 5001),
                    encoding="utf-8")
    code, out, err = run_main(["solve-game", str(path)])
    assert (code, out, err) == (2, "", "error: JSON integer literal too long\n")


def test_exponent_thresholds_exit_2(tmp_path):
    # Fraction parses them, but printing 1e-5000 exceeds the digit limit
    code, out, err = run_main(["decide", fixture_path("fig6.game.json"), "--config", "s1",
                               "--cmp", ">=", "--threshold", "1e-5000"])
    assert (code, out, err) == (2, "", "error: not a rational: '1e-5000'\n")
    data = json.loads(fixture_text("fig6.game.json"))
    data["configurations"][0]["obligation"]["threshold"] = "1e-5000"
    path = tmp_path / "exponent.game.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_main(["solve-game", str(path), "--format", "table"])
    assert (code, out, err) == (2, "", "error: not a rational: '1e-5000'\n")


# Numbers of 2201 digits, within the parser's limit; their products and
# sums run past the interpreter's 4300-digit limit on str(int).
HUGE_A, HUGE_B = 10**2200 + 1, 10**2200 + 3


def huge_chain(s0_row: dict) -> str:
    """A chain s0 -> s1 -> win, falling to lose, with s0's row `s0_row`."""
    locations = [{"id": name, "labels": [], "priority": priority, "obligation": None}
                 for name, priority in (("s0", 1), ("s1", 1), ("win", 0), ("lose", 1))]
    transitions = {"s0": s0_row,
                   "s1": {"win": f"1/{HUGE_B}", "lose": f"{HUGE_B - 1}/{HUGE_B}"},
                   "win": {"win": "1"}, "lose": {"lose": "1"}}
    return json.dumps({"format": "obg-v1", "kind": "chain", "locations": locations,
                       "initial": "s0", "transitions": transitions})


def test_values_beyond_the_digit_limit_are_printed(tmp_path):
    path = tmp_path / "huge.chain.json"
    path.write_text(huge_chain({"s1": f"1/{HUGE_A}", "lose": f"{HUGE_A - 1}/{HUGE_A}"}),
                    encoding="utf-8")
    value = f"1/{Decimal(HUGE_A * HUGE_B)}"
    code, out, err = run_main(["solve-chain", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["values"]["s0"] == value
    code, out, err = run_main(["solve-chain", str(path)])
    assert (code, err) == (0, "")
    assert any(line.split()[0] == "s0" and value in line.split() for line in out.splitlines())
    code, out, err = run_main(["oracle", str(path), "--samples", "10"])
    assert (code, err) == (0, "")
    assert json.loads(out)["exact"] == value


def test_row_sums_beyond_the_digit_limit_exit_2(tmp_path):
    total = Fraction(1, HUGE_A) + Fraction(1, HUGE_B)
    expected = f"sums to {Decimal(total.numerator)}/{Decimal(total.denominator)}, expected 1"
    path = tmp_path / "huge.chain.json"
    path.write_text(huge_chain({"s1": f"1/{HUGE_A}", "lose": f"1/{HUGE_B}"}), encoding="utf-8")
    code, out, err = run_main(["solve-chain", str(path)])
    assert (code, out) == (2, "") and expected in err
    data = json.loads(fixture_text("fig6.game.json"))
    data["kernel"]["s1"] = {"s2": f"1/{HUGE_A}", "s3": f"1/{HUGE_B}"}
    path = tmp_path / "huge.game.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_main(["solve-game", str(path)])
    assert (code, out) == (2, "") and expected in err


def nested_default(depth: int) -> dict:
    """until.paut.json with q1's default an or-chain of ``depth`` formulas."""
    data = json.loads(fixture_text("until.paut.json"))
    formula = ["state", "q1"]
    for _ in range(depth - 1):
        formula = ["or", formula, ["ff"]]
    data["transitions"]["q1"]["default"] = formula
    return data


def test_formula_depth_is_bounded(tmp_path):
    limit = io_formats.MAX_FORMULA_DEPTH
    chain = fixture_path("two_location.chain.json")
    for depth, expected in ((limit, 0), (limit + 1, 2)):
        path = tmp_path / f"depth{depth}.paut.json"
        path.write_text(json.dumps(nested_default(depth)), encoding="utf-8")
        for argv in (["paut", "accepts", str(path), chain], ["paut", "uniform", str(path)],
                     ["export-dot", str(path), chain]):
            code, out, err = run_main(argv)
            assert code == expected, (argv, err)
            if expected == 2:
                assert out == ""
                assert err == f"error: default of q1: formula nested deeper than {limit}\n"


def test_unexpected_exception_exits_4_not_1(monkeypatch, capsys):
    import obg.cli as cli_mod

    def crash(*args, **kwargs):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli_mod, "cmd_solve_game", crash)
    assert main(["solve-game", fixture_path("fig6.game.json")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: synthetic crash\n"


def test_selftest_does_not_depend_on_asserts():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-m", "obg.cli", "selftest", "--rounds", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "Traceback" not in done.stdout + done.stderr


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no invariant of the package may rest on one
    src = Path(__file__).resolve().parents[1] / "src" / "obg"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------------------
# Fixture fuzzing

DELETE = object()
FUZZ_CHANGES = [DELETE, None, 5, "x", [], {}, -1, 1.5, True, ["x"]]


def value_paths(node, prefix=()):
    """The path of every value inside a document, its provenance left out."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if prefix or key != "provenance":
            yield prefix + (key,)
            yield from value_paths(child, prefix + (key,))


def readers(kind: str, path: str, first: str) -> list[list[str]]:
    """Every subcommand that reads a document of this kind from ``path``."""
    if kind == "dependency":
        return [["verify", fixture_path("fig6.game.json"), path]]
    if kind == "pautomaton":
        chain = fixture_path("two_location.chain.json")
        return [["paut", "uniform", path], ["paut", "accepts", path, chain],
                ["export-dot", path, chain]]
    common = [["solve-game", path, "--no-witnesses"], ["export-dot", path],
              ["decide", path, "--config", first, "--cmp", ">=", "--threshold", "1/2"]]
    if kind == "game":
        return common + [["verify", path, fixture_path("fig6.dependency.json")],
                         ["oracle", path]]
    automaton = fixture_path("until.paut.json")
    return common + [["solve-chain", path, "--no-witnesses"],
                     ["oracle", path, "--samples", "20"],
                     ["paut", "accepts", automaton, path], ["export-dot", automaton, path]]


def test_mutated_fixtures_exit_0_to_3_without_internal_errors(monkeypatch, capsys):
    import obg.cli as cli_mod

    mutants: dict[str, str] = {}
    read = cli_mod._read
    monkeypatch.setattr(cli_mod, "_read",
                        lambda path: mutants[path] if path in mutants else read(path))
    # one parser serves every run: building it would take most of the time
    monkeypatch.setattr(cli_mod, "build_parser",
                        functools.lru_cache(maxsize=None)(cli_mod.build_parser))
    rng = random.Random(8)
    failures, runs = [], 0
    for name in ALL_FIXTURES:
        original = json.loads(fixture_text(name))
        entries = original.get("configurations") or original.get("locations") or [{}]
        path = f"mutant/{name}"
        for where in value_paths(original):
            for change in rng.sample(FUZZ_CHANGES, 3):
                data = copy.deepcopy(original)
                *parents, last = where
                holder = data
                for key in parents:
                    holder = holder[key]
                if change is DELETE:
                    del holder[last]
                else:
                    holder[last] = change
                mutants[path] = json.dumps(data)
                for argv in readers(original["kind"], path, entries[0].get("id", "")):
                    code = main(argv)
                    err = capsys.readouterr().err
                    runs += 1
                    if not 0 <= code <= 3 or "internal error" in err:
                        failures.append((name, where, change, argv[0], code, err))
    assert runs > 5000
    assert failures == []


@pytest.mark.parametrize("kind", ["game", "chain", "dependency", "pautomaton"])
def test_files_that_are_not_utf8_exit_2(tmp_path, kind):
    path = tmp_path / f"bad.{kind}.json"
    path.write_bytes(b"\xff\xfe{}")
    for argv in readers(kind, str(path), "s1"):
        code, out, err = run_main(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {path} is not UTF-8 text: "), argv


# Runs obg.cli.main on the arguments and prints its exit code and the
# obg submodules the run loaded.
STARTUP_RUNNER = """
import contextlib, io, json, sys
from obg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("obg."))]))
"""

# Of the modules no solver path needs, the ones each subcommand may load.
OPTIONAL_MODULES = {"obg.pautomata", "obg.generators", "obg.dot_export"}
STARTUP_LOADS = {"solve-game": set(), "solve-chain": set(), "verify": set(),
                 "decide": set(), "oracle": set(), "paut": {"obg.pautomata"}}


@pytest.mark.parametrize("argv", [argv for argv in readme_commands()
                                  if argv[0] in STARTUP_LOADS],
                         ids=lambda argv: " ".join(argv[:2]))
def test_each_subcommand_loads_only_the_modules_it_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", STARTUP_RUNNER, *argv],
                          capture_output=True, text=True, env=env, cwd=REPO, timeout=120)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    assert code == 0
    assert OPTIONAL_MODULES & set(loaded) == STARTUP_LOADS[argv[0]]
