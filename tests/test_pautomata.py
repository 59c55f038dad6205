import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obg import (InputFormatError, accepts, build_automaton_graph,
                 build_product_game, closure, dual_game, find_best_dependency,
                 io_formats, linalg, make_chain, reach_probability)
from obg.cli import main
from obg.model import ONE, ZERO, Owner
from obg.budgets import Budgets
from obg.pautomata import (FF, TT, And, Or, PAutomaton, StateAtom, Term,
                           closure_of_set, is_uniform, validate_automaton)

from conftest import FIXTURES, accepts_layered, load_automaton, load_chain_doc

HALF = F(1, 2)


def formulas():
    atoms = st.sampled_from([TT, FF, StateAtom("q1"), StateAtom("q2"),
                             Term("q1", ">", F(1, 3)), Term("q2", ">=", HALF)])
    return st.recursive(
        atoms,
        lambda sub: st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
            lambda t: And(t[1], t[2]) if t[0] == "and" else Or(t[1], t[2])),
        max_leaves=8)


def test_closure_trivial_cases():
    assert closure(TT) == frozenset({TT})
    formula = Or(StateAtom("q1"), Term("q2", ">=", HALF))
    assert closure(formula) == frozenset({formula, StateAtom("q1"),
                                          Term("q2", ">=", HALF)})


@given(formulas())
@settings(max_examples=60)
def test_closure_is_idempotent(formula):
    once = closure(formula)
    assert closure_of_set(once) == once


def until_automaton():
    return load_automaton("until.paut.json")


def two_location():
    return load_chain_doc("two_location.chain.json").chain


def three_location():
    return load_chain_doc("three_location.chain.json").chain


def test_source_example_graph_has_bounded_edge_in_q2_class():
    aut = until_automaton()
    graph = build_automaton_graph(aut)
    term = Term("q2", ">=", HALF)
    assert (term, StateAtom("q2")) in graph.bounded
    # and that edge lies inside the [q2] strongly connected class
    assert (StateAtom("q2"), term) in graph.simple


def test_tt_only_automaton_has_no_nontrivial_edges():
    aut = PAutomaton(propositions=(), states=("q",), priority={"q": 0},
                     cases={}, default={"q": TT},
                     initial=Term("q", ">=", ZERO))
    graph = build_automaton_graph(aut)
    assert not graph.unbounded
    assert not graph.bounded
    assert graph.simple == frozenset({(StateAtom("q"), TT)})


def test_self_state_transition_is_simple_edge_only():
    aut = PAutomaton(propositions=(), states=("q",), priority={"q": 0},
                     cases={"q": {frozenset(): StateAtom("q")}},
                     default={"q": FF},
                     initial=Term("q", ">=", HALF))
    graph = build_automaton_graph(aut)
    assert (StateAtom("q"), StateAtom("q")) in graph.simple
    assert not graph.unbounded


def test_source_example_automaton_is_uniform():
    assert is_uniform(until_automaton()) == (True, None)


def test_mixed_conjunction_automaton_is_not_uniform():
    aut = PAutomaton(propositions=(), states=("q",), priority={"q": 0},
                     cases={"q": {frozenset(): And(StateAtom("q"),
                                                   Term("q", ">=", HALF))}},
                     default={"q": FF},
                     initial=Term("q", ">=", HALF))
    uniform, witness = is_uniform(aut)
    assert not uniform
    assert witness is not None and StateAtom("q") in witness


def test_term_free_automaton_is_uniform():
    aut = PAutomaton(propositions=(), states=("q",), priority={"q": 0},
                     cases={"q": {frozenset(): StateAtom("q")}},
                     default={"q": FF},
                     initial=Term("q", ">=", ZERO))
    assert is_uniform(aut)[0]


def test_product_ownership_and_kernels():
    aut = until_automaton()
    chain = two_location()
    product, root = build_product_game(aut, chain)
    assert product.obligation[root] is not None
    for v in range(len(product)):
        formula_part = product.names[v].split("|", 1)[1]
        if formula_part.startswith("(") and "&" in formula_part:
            assert product.owners[v] is Owner.PLAYER1
        if formula_part.startswith("(") and "|" in formula_part:
            assert product.owners[v] is Owner.PLAYER0
        if product.owners[v] is Owner.PROBABILISTIC:
            total = sum(p for _, p in product.kernel_row(v))
            assert total == ONE


def test_product_numbering_is_pinned():
    # canonical certificates name product configurations by this numbering
    product, root = build_product_game(until_automaton(), two_location())
    assert root == 0
    assert product.names == (
        "sa|[q1≥1/2]", "sa|(q1|[q2≥1/2])", "sb|(q1|[q2≥1/2])", "sb|q1",
        "sb|[q2≥1/2]", "sb|ff", "sa|q1", "sa|[q2≥1/2]", "sa|ff")


def test_product_disjunction_is_player0():
    aut = until_automaton()
    product, _ = build_product_game(aut, two_location())
    or_configs = [v for v in range(len(product)) if "|" in product.names[v]
                  and "(" in product.names[v]]
    assert or_configs
    assert all(product.owners[v] is Owner.PLAYER0 for v in or_configs)


def test_product_size_bound():
    aut = until_automaton()
    chain = two_location()
    product, _ = build_product_game(aut, chain)
    letters = aut.letters()
    transition_closure = closure_of_set(
        [aut.transition(q, letter) for q in aut.states for letter in letters])
    bound = len(chain) * len(transition_closure | closure(aut.initial))
    assert len(product) <= bound


def test_accept_everything_and_nothing():
    chain = two_location()
    accept_all = PAutomaton(propositions=("a", "b"), states=("q",),
                            priority={"q": 0},
                            cases={}, default={"q": TT},
                            initial=Term("q", ">=", ONE))
    assert accepts(accept_all, chain).accepted
    reject_all = PAutomaton(propositions=("a", "b"), states=("q",),
                            priority={"q": 0},
                            cases={}, default={"q": FF},
                            initial=Term("q", ">", HALF))
    assert not accepts(reject_all, chain).accepted


def test_unsatisfiable_strict_one_bound_rejects_everything():
    # a strict bound at one is well-formed but can never be exceeded
    aut = PAutomaton(propositions=("a", "b"), states=("q",), priority={"q": 0},
                     cases={}, default={"q": TT},
                     initial=Term("q", ">", ONE))
    result = accepts(aut, two_location())
    assert not result.accepted


def test_bounds_beyond_one_are_rejected_at_validation():
    aut = PAutomaton(propositions=(), states=("q",), priority={"q": 0},
                     cases={}, default={"q": TT},
                     initial=Term("q", ">=", F(3, 2)))
    with pytest.raises(InputFormatError):
        build_product_game(aut, two_location())


def until_probability_verdict(chain) -> bool:
    """Independent oracle: greatest fixpoint for the recursive term, then
    a constrained-until probability through a linear system."""
    n = len(chain)
    region = set(range(n))
    while True:
        refined = {s for s in region
                   if "b" in chain.labels[s]
                   and sum(p for t, p in chain.succ[s] if t in region) >= HALF}
        if refined == region:
            break
        region = refined
    avoid = {s for s in range(n)
             if "a" not in chain.labels[s] and s not in region}
    values = reach_probability(chain.succ, frozenset(region), frozenset(avoid))
    return values[chain.initial] >= HALF


def test_acceptance_matches_until_oracle():
    aut = until_automaton()
    for chain in (two_location(), three_location()):
        assert accepts(aut, chain).accepted == until_probability_verdict(chain)


def test_layered_solve_agrees_with_general():
    aut = until_automaton()
    for chain in (two_location(), three_location()):
        general = accepts(aut, chain)
        layered_verdict, layered_values = accepts_layered(aut, chain)
        assert layered_verdict == general.accepted
        for v, value in layered_values.items():
            assert value == general.report.values[v]


def test_ruin_chain_acceptance_solves_one_system(monkeypatch):
    # [q >= 1/2], q waiting for the label a, on a gambler's ruin over
    # 0..249 whose top is labelled a: the lifting's one test and the
    # reduced game read the same settled game, so one system is solved
    length = 250
    names = [f"s{k}" for k in range(length)]
    transitions = {names[0]: {names[0]: ONE}, names[-1]: {names[-1]: ONE}}
    for k in range(1, length - 1):
        up = (F(1, 3), F(2, 3))[k % 2]
        transitions[names[k]] = {names[k + 1]: up, names[k - 1]: ONE - up}
    chain = make_chain(names, transitions, labels={names[-1]: ["a"]},
                       initial=names[length // 2])
    aut = PAutomaton(propositions=("a",), states=("q",), priority={"q": 1},
                     cases={"q": {frozenset(): StateAtom("q"), frozenset({"a"}): TT}},
                     default={"q": FF}, initial=Term("q", ">=", HALF))
    dimensions = []
    solve = linalg.solve_linear_system

    def recording(rows, rhs):
        dimensions.append(len(rhs))
        return solve(rows, rhs)

    monkeypatch.setattr(linalg, "solve_linear_system", recording)
    result = accepts(aut, chain)
    assert dimensions == [length - 1]
    assert dict(result.report.stats)["settled_solves"] == 1
    reach = reach_probability(chain.succ, frozenset({length - 1}))
    assert result.accepted == (reach[chain.initial] >= HALF)


def test_complement_duality_on_fixture_chains():
    aut = until_automaton()
    for chain in (two_location(), three_location()):
        product, root = build_product_game(aut, chain)
        _, primal = find_best_dependency(product, witnesses=False)
        _, counter = find_best_dependency(dual_game(product), witnesses=False)
        assert primal.values[root] + counter.values[root] == ONE


def test_validate_automaton_rejects_state_atom_in_initial():
    aut = PAutomaton(propositions=(), states=("q",), priority={"q": 0},
                     cases={}, default={"q": TT}, initial=StateAtom("q"))
    assert any("bare state atoms" in p for p in validate_automaton(aut))


# A letter's key in a document joins its sorted propositions with ",", so
# a letter key could not name these propositions: the empty and the comma
# automaton each have two cases under one key.
UNNAMEABLE = {
    "duplicate": (("a", "b", "a"), [frozenset({"a"})], "proposition 'a' is listed twice"),
    "empty": (("a", ""), [frozenset({""}), frozenset()],
              "proposition '' is empty or contains ','; no letter key could name it"),
    "comma": (("a", "b", "a,b"), [frozenset({"a", "b"}), frozenset({"a,b"})],
              "proposition 'a,b' is empty or contains ','; no letter key could name it"),
}


@pytest.mark.parametrize("shape", UNNAMEABLE)
def test_propositions_a_letter_key_cannot_name_are_rejected(shape, tmp_path, capsys):
    propositions, letters, problem = UNNAMEABLE[shape]
    aut = PAutomaton(propositions=propositions, states=("q",), priority={"q": 0},
                     cases={"q": {letter: TT for letter in letters}}, default={"q": FF},
                     initial=Term("q", ">=", HALF))
    assert problem in validate_automaton(aut)
    with pytest.raises(InputFormatError, match=re.escape(problem)):
        accepts(aut, two_location())
    text = io_formats.serialize_automaton_document(aut)
    with pytest.raises(InputFormatError, match=re.escape(problem)):
        io_formats.parse_automaton_document(text)
    path = tmp_path / "aut.json"
    path.write_text(text, encoding="utf-8")
    chain = str(FIXTURES / "two_location.chain.json")
    for argv in (["paut", "uniform", str(path)], ["paut", "accepts", str(path), chain]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_layered_agrees_with_general_on_random_automata(seed):
    import random
    from obg.generators import random_automaton, random_labeled_chain
    rng = random.Random(seed)
    aut = random_automaton(rng)
    chain = random_labeled_chain(rng)
    wide = Budgets(max_obligations=64, max_priority=8)
    general = accepts(aut, chain, budgets=wide)
    layered_verdict, layered_values = accepts_layered(aut, chain, budgets=wide)
    assert layered_verdict == general.accepted
    for v, value in layered_values.items():
        assert value == general.report.values[v]


def assert_product_duality(seed):
    import random
    from obg.generators import random_automaton, random_labeled_chain
    rng = random.Random(seed)
    aut = random_automaton(rng)
    chain = random_labeled_chain(rng)
    wide = Budgets(max_obligations=64, max_priority=8)
    product, root = build_product_game(aut, chain)
    _, primal = find_best_dependency(product, budgets=wide, witnesses=False)
    _, counter = find_best_dependency(dual_game(product), budgets=wide,
                                      witnesses=False)
    assert all(a + b == ONE for a, b in zip(primal.values, counter.values))


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_complement_duality_on_random_products(seed):
    assert_product_duality(seed)


# These products exhausted 20000 nodes of the met-set enumeration that the
# progress-measure lifting replaced: 593 on the primal, the others on the dual.
@pytest.mark.parametrize("seed", [593, 75753, 117, 279])
def test_complement_duality_on_products_that_exhausted_the_met_set_search(seed):
    assert_product_duality(seed)
