"""Exhaustive proof search, language membership, and the regeneration chain."""

import random
from dataclasses import replace

import pytest

from proofforge import bounded
from proofforge.bounded import (
    SearchLimits,
    enumerate_proofs,
    formulas_of_size,
    l_k_membership,
    regeneration_chain,
    shortest_proof_length,
    terms_of_size,
)
from proofforge.corpus import membership_formula_corpus
from proofforge.calculus import could_be_axiom, find_axiom_justification, print_proof_text, proof_size
from proofforge.goedel import (
    PROVER_CHAIN,
    con_bounded,
    eval_delta0,
    extend_with_axiom,
    induction_theory,
    standard_theory,
)
from proofforge.syntax import (
    ZERO,
    Var,
    formula_size,
    free_variables,
    is_delta0,
    is_sentence,
    parse_formula,
    print_formula,
    term_size,
)
from proofforge.verifier import check_witness, proof_of

Q = standard_theory()
DESK_LIMITS = SearchLimits(node_cap=4_000)


@pytest.mark.parametrize("size, count", [(1, 17), (2, 136), (3, 3978), (4, 78064)])
def test_term_pool_counts_are_pinned(size, count):
    pool = terms_of_size(size)
    assert len(pool) == count
    assert len(set(pool)) == count


@pytest.mark.parametrize("size, count", [(3, 289), (4, 4913), (5, 163285)])
def test_formula_pool_counts_are_pinned(size, count):
    pool = formulas_of_size(size)
    assert len(pool) == count
    assert len(set(pool)) == count


def test_pools_are_keyed_by_the_variable_pool(monkeypatch):
    default = (terms_of_size(1), terms_of_size(2), formulas_of_size(3), bounded.axiom_pool(Q, 3, 600_000))
    names = ("x", "y", "z")
    with monkeypatch.context() as m:
        m.setattr(bounded, "VAR_POOL", names)
        atoms, terms = terms_of_size(1), terms_of_size(2)
        formulas = formulas_of_size(3)
        axioms = bounded.axiom_pool(Q, 3, 600_000)
    assert atoms == (ZERO, Var("x"), Var("y"), Var("z"))
    assert (len(terms), len(formulas), len(axioms)) == (4 * 8, 16, 4)
    used = set()
    for f in formulas:
        used |= free_variables(f)
    assert used == set(names)
    assert [print_formula(f) for f, _ in axioms] == ["0 = 0", "x = x", "y = y", "z = z"]
    # the default pools are the ones cached before, not rebuilt over the names
    after = (terms_of_size(1), terms_of_size(2), formulas_of_size(3), bounded.axiom_pool(Q, 3, 600_000))
    assert all(a is b for a, b in zip(after, default))
    assert [len(p) for p in after] == [17, 136, 289, 17]


def test_pools_contain_exactly_the_declared_size():
    for size in (1, 2, 3):
        assert all(term_size(t) == size for t in terms_of_size(size))
    for size in (3, 4):
        assert all(formula_size(f) == size for f in formulas_of_size(size))


def test_enumeration_finds_the_three_symbol_proof_of_reflexivity():
    r = enumerate_proofs(Q, parse_formula("0 = 0"), 3)
    assert r.outcome == "found"
    assert r.proof is not None and proof_of(Q, r.proof, parse_formula("0 = 0")).ok
    from proofforge.calculus import proof_size

    assert proof_size(r.proof) == 3


def test_enumeration_definitive_negative_below_minimum():
    for budget in (1, 2):
        r = enumerate_proofs(Q, parse_formula("0 = 0"), budget)
        assert r.outcome == "none"
        assert r.definitive


def test_enumeration_never_finds_a_false_sentence():
    # sweep every searched formula of size <= 5 that is closed bounded
    # arithmetic: anything the search proves must evaluate true
    found_false = []
    for size in (3, 4, 5):
        for f in formulas_of_size(size):
            if not (is_sentence(f) and is_delta0(f)):
                continue
            r = enumerate_proofs(Q, f, 7, limits=DESK_LIMITS)
            if r.outcome == "found" and not eval_delta0(Q, f):
                found_false.append(print_formula(f))
    assert found_false == []


def test_shortest_proof_length_pins():
    assert shortest_proof_length(Q, parse_formula("0 = 0"), 6) == (3, True)
    # the implication needs the detachment dance: EQREFL + P1 + MP is 23
    # symbols, and the node-capped sweep below that is honest about having
    # stopped early, so the length comes back non-definitive
    length, definitive = shortest_proof_length(Q, parse_formula("0 = 0 -> 0 = 0"), 24, limits=DESK_LIMITS)
    assert length == 23
    assert definitive is False


def test_membership_pins_for_the_reference_witness():
    phi = parse_formula("0 = 0 -> 0 = 0")
    out = l_k_membership(Q, phi, 1, limits=DESK_LIMITS)
    assert out.member is False and out.definitive
    inn = l_k_membership(Q, phi, 2, limits=DESK_LIMITS)
    assert inn.member is True and inn.proof is not None
    assert check_witness(Q, phi, inn.proof, 2)


@pytest.mark.parametrize("budget, nodes", [(8, 18), (9, 30), (10, 288)])
def test_refutation_outcomes_and_node_counts_are_pinned(budget, nodes):
    r = enumerate_proofs(Q, parse_formula("!(0 = 0)"), budget)
    assert (r.outcome, r.definitive, r.nodes) == ("none", True, nodes)


REFLEXIVITY_WITNESS = "1. 0 = 0 ; EQREFL[t=0]\n2. 0 = 0 -> 0 = 0 -> 0 = 0 ; P1\n3. 0 = 0 -> 0 = 0 ; MP 2 1\n"
MEMBERSHIP_PINS = [
    # (phi, k, member, definitive, outcome, effective bound, witness text)
    ("0 = 0 -> 0 = 0", 1, False, True, "none", 7, None),
    ("0 = 0 -> 0 = 0", 2, True, True, "found", 24, REFLEXIVITY_WITNESS),
    ("0 = 0 -> 0 = 0", 3, True, True, "found", 24, REFLEXIVITY_WITNESS),
    ("!(0 = S(0))", 1, False, True, "none", 5, None),
    ("!(0 = S(0))", 2, None, False, "budget_exhausted", 24, None),
    ("0 = S(0)", 1, False, True, "none", 4, None),
    ("0 = S(0)", 2, None, False, "budget_exhausted", 16, None),
]


@pytest.mark.parametrize("text, k, member, definitive, outcome, effective, witness", MEMBERSHIP_PINS)
def test_membership_table_is_pinned(text, k, member, definitive, outcome, effective, witness):
    rep = l_k_membership(Q, parse_formula(text), k, limits=DESK_LIMITS)
    assert (rep.member, rep.definitive, rep.outcome, rep.effective_bound) == (member, definitive, outcome, effective)
    assert (rep.proof and print_proof_text(rep.proof)) == witness


# (phi, budget, outcome, nodes, printed proof): the search that each
# MEMBERSHIP_PINS row makes at its effective bound, then searches whose
# proofs need a generalized prefix line.  The order in which the search
# meets its candidates fixes the node count and which proof it finds first.
SEARCH_PINS = [
    ("0 = 0 -> 0 = 0", 7, "none", 1, None),
    ("0 = 0 -> 0 = 0", 24, "found", 3, REFLEXIVITY_WITNESS),
    ("!(0 = S(0))", 5, "none", 1, None),
    ("!(0 = S(0))", 24, "budget_exhausted", 4001, None),
    ("0 = S(0)", 4, "none", 1, None),
    ("0 = S(0)", 16, "budget_exhausted", 4001, None),
    ("forall y forall x (x = x)", 16, "budget_exhausted", 968, None),
    (
        "forall y forall x (x = x)",
        17,
        "found",
        289,
        "1. x = x ; EQREFL[t=x]\n2. forall x (x = x) ; GEN 1 x\n3. forall y (forall x (x = x)) ; GEN 2 y\n",
    ),
    ("forall y forall<= x S(0) (x = x)", 20, "budget_exhausted", 4001, None),
    (
        "forall y forall<= x S(0) (x = x)",
        21,
        "found",
        817,
        "1. x = x ; EQREFL[t=x]\n2. forall<= x S(0) (x = x) ; BGEN 1 x S(0)\n"
        "3. forall y (forall<= x S(0) (x = x)) ; GEN 2 y\n",
    ),
    (
        "forall<= y 0 forall<= x 0 (x = x)",
        22,
        "found",
        929,
        "1. x = x ; EQREFL[t=x]\n2. forall<= x 0 (x = x) ; BGEN 1 x 0\n3. forall<= y 0 (forall<= x 0 (x = x)) ; BGEN 2 y 0\n",
    ),
]


@pytest.mark.parametrize("text, budget, outcome, nodes, proof", SEARCH_PINS)
def test_search_order_is_pinned(text, budget, outcome, nodes, proof):
    assert {(t, min(formula_size(parse_formula(t)) ** k, 24)) for t, k, *_ in MEMBERSHIP_PINS} <= {
        (t, b) for t, b, *_ in SEARCH_PINS
    }
    r = enumerate_proofs(Q, parse_formula(text), budget, limits=DESK_LIMITS)
    assert (r.outcome, r.nodes, r.proof and print_proof_text(r.proof)) == (outcome, nodes, proof)


def test_a_bounded_generalization_line_counts_its_bound(monkeypatch):
    # with no axiom pools and three pool variables the search is small: the
    # target's shortest proof is 0 = 0, then forall<= x 0, forall y and
    # forall z over it, of size 3 + 6 + 8 + 10 plus three separators
    monkeypatch.setattr(bounded, "axiom_pool", lambda theory, size, cap: ())
    monkeypatch.setattr(bounded, "VAR_POOL", ("x", "y", "z"))
    target = parse_formula("forall z forall y forall<= x 0 0 = 0")
    found = enumerate_proofs(Q, target, 30)
    assert (found.outcome, found.nodes, proof_size(found.proof)) == ("found", 58_768, 30)
    assert [type(ln.justification).__name__ for ln in found.proof.lines] == ["AxiomJust", "BGenJust", "GenJust", "GenJust"]
    # a line placed after the bgen line must see the bound's size too, or
    # this proof would fit the smaller budgets
    for budget in (28, 29):
        r = enumerate_proofs(Q, target, budget, limits=SearchLimits(node_cap=3_000))
        assert r.proof is None or proof_size(r.proof) <= budget, (budget, print_proof_text(r.proof))


def test_regeneration_self_searches_are_pinned():
    levels = regeneration_chain(3, 8)
    searches = [(lv.con_size, lv.self_search) for lv in levels]
    assert [(size, r.budget, r.outcome, r.definitive, r.nodes, r.proof) for size, r in searches] == [
        (34, 40, "none", True, 288, None),
        (34, 40, "none", True, 290, None),
        (34, 40, "none", True, 292, None),
    ]


def test_membership_agrees_with_direct_search_on_corpus():
    rng = random.Random(60089)
    checked = 0
    for phi in membership_formula_corpus(rng, 40):
        for k in (1, 2):
            rep = l_k_membership(Q, phi, k, limits=DESK_LIMITS)
            if not rep.definitive:
                continue
            direct = enumerate_proofs(Q, phi, rep.effective_bound, limits=DESK_LIMITS)
            checked += 1
            if direct.outcome == "found":
                assert rep.member is True
            elif direct.outcome == "none" and direct.definitive:
                assert rep.member is False
    assert checked >= 30


def test_membership_bound_is_size_power_k():
    phi = parse_formula("0 = 0 -> 0 = 0")  # size 7
    rep = l_k_membership(Q, phi, 2, desk_cap=60, limits=DESK_LIMITS)
    assert rep.bound == formula_size(phi) ** 2


def test_found_witnesses_satisfy_the_np_relation():
    rng = random.Random(60090)
    hits = 0
    for phi in membership_formula_corpus(rng, 60):
        rep = l_k_membership(Q, phi, 2, limits=DESK_LIMITS)
        if rep.member and rep.proof is not None:
            hits += 1
            assert check_witness(Q, phi, rep.proof, 2)
    assert hits >= 10


def test_regeneration_chain_climbs_with_receipts():
    levels = regeneration_chain(depth=2, m=8)
    assert len(levels) == 2
    codes = {lvl.con_code for lvl in levels}
    assert len(codes) == 2  # pairwise distinct consistency statements
    for lvl in levels:
        assert lvl.next_level_one_line_ok
        assert lvl.self_search.outcome == "none"
        assert lvl.self_search.definitive


def test_regeneration_chain_reuses_axiom_pools_across_calls():
    regeneration_chain(depth=2, m=8)
    before = dict(bounded._AXIOM_POOLS)
    regeneration_chain(depth=2, m=8)
    assert bounded._AXIOM_POOLS.keys() == before.keys()
    assert all(bounded._AXIOM_POOLS[key] is pool for key, pool in before.items())


def test_axiom_pools_are_keyed_by_theory_content_not_name():
    # two different extensions of Q that both get the default name "Q+1"
    target = parse_formula("forall x !(0 = S(0))")
    t1 = extend_with_axiom(Q, parse_formula("!(0 = S(0))"), "prft1")
    t2 = extend_with_axiom(Q, parse_formula("0 = 0"), "prft1")
    assert t1.name == t2.name
    r1 = enumerate_proofs(t1, target, 13)
    assert r1.outcome == "found" and proof_of(t1, r1.proof, target).ok
    # a pool shared by name would hand t2 the axiom !(0 = S(0)) and a
    # "proof" that proof_of rejects
    r2 = enumerate_proofs(t2, target, 13)
    assert (r2.outcome, r2.definitive) == ("none", True)
    fresh = extend_with_axiom(Q, parse_formula("0 = 0"), "prft1", name="fresh")
    assert enumerate_proofs(fresh, target, 13).nodes == r2.nodes


def reference_pool(theory, size, cap):
    """`axiom_pool` as it was: every formula of the size through the one
    justification search."""
    pool = []
    for f in formulas_of_size(size, cap):
        j = find_axiom_justification(theory, f)
        if j is not None:
            pool.append((f, j))
    return tuple(pool)


def chain_theories(depth, m):
    """The theories `regeneration_chain(depth, m)` climbs through."""
    theories = [standard_theory()]
    for i in range(depth - 1):
        con = con_bounded(theories[-1], m, symbol=PROVER_CHAIN[i])
        theories.append(extend_with_axiom(theories[-1], con, PROVER_CHAIN[i + 1], name=f"{theories[-1].name}+c{i + 1}"))
    return theories


# small sentences of every root class, true and false; 0 = 0 is also an
# EQREFL and a COMPUTE instance, and forall x !(S(x) = 0) is QAX 1
SMALL_AXIOMS = (
    "0 = 0",
    "0 = S(0)",
    "!(0 = S(0))",
    "!(0 = 0)",
    "0 = 0 -> 0 = 0",
    "0 = 0 -> 0 = S(0)",
    "forall x x = x",
    "forall x x = 0",
    "forall x !(S(x) = 0)",
    "forall<= x 0 x = 0",
    "forall<= x S(0) x = 0",
    "exists<= x S(0) x = S(0)",
    "exists<= x 0 x = S(0)",
)


def test_axiom_pools_equal_the_generate_and_filter_pools(monkeypatch):
    small = replace(Q, name="small", extra_axioms=tuple(parse_formula(t) for t in SMALL_AXIOMS))
    for theory in (Q, induction_theory(), *chain_theories(3, 8), small):
        for size in (3, 4, 5):
            assert bounded.axiom_pool(theory, size, 600_000) == reference_pool(theory, size, 600_000), (theory.name, size)
    assert len(bounded.axiom_pool(small, 5, 600_000)) == len(bounded.axiom_pool(Q, 5, 600_000)) + 3
    with pytest.raises(bounded.PoolCapExceeded):
        bounded.axiom_pool(Q, 5, 1_000)
    monkeypatch.setattr(bounded, "VAR_POOL", ("x", "y", "z"))
    for theory in (Q, induction_theory(), small):
        for size in (3, 4, 5):
            assert bounded.axiom_pool(theory, size, 600_000) == reference_pool(theory, size, 600_000), (theory.name, size)
    # past size 5 and at the caps' edges: implications, quantifiers and
    # refusals, on pools of 1-3 names.  The largest pool is not cached.
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        for cap in (300, 10_000, 600_000):
            for size in range(1, 9):
                try:
                    filtered = tuple(filter(could_be_axiom, bounded._formulas_of_size.__wrapped__(size, cap, names)))
                except bounded.PoolCapExceeded:
                    filtered = None
                try:
                    assert bounded._axiom_candidates(size, cap, names) == filtered, (names, cap, size)
                except bounded.PoolCapExceeded:
                    assert filtered is None, (names, cap, size)
    # a pool of exactly the cap is built, one formula more is refused
    for names, size, whole in ((("x",), 6, 14_396), (("x", "y"), 5, 2_439)):
        assert len(bounded._formulas_of_size.__wrapped__(size, whole, names)) == whole
        assert bounded._axiom_candidates(size, whole, names) == tuple(
            filter(could_be_axiom, bounded._formulas_of_size.__wrapped__(size, whole, names))
        )
        for build in (bounded._formulas_of_size, bounded._axiom_candidates):
            with pytest.raises(bounded.PoolCapExceeded):
                build(size, whole - 1, names)


def test_no_pool_of_size_five_or_more_is_built_for_the_default_pools(monkeypatch):
    # the equations of the candidates come from term pools, so the default
    # pools of sizes 3-5 build no formula pool past size 4, and size 6 is
    # refused by its count (4,135,301 formulas) before anything is built
    names = tuple(f"g{i}" for i in range(16))
    default = [len(bounded.axiom_pool(Q, size, 600_000)) for size in (3, 4, 5)]
    built = []
    formulas_of_size = bounded._formulas_of_size

    def record(size, cap, names):
        built.append(size)
        return formulas_of_size(size, cap, names)

    monkeypatch.setattr(bounded, "_formulas_of_size", record)
    monkeypatch.setattr(bounded, "VAR_POOL", names)
    pools = [bounded.axiom_pool(Q, size, 600_000) for size in (3, 4, 5)]
    with pytest.raises(bounded.PoolCapExceeded):
        bounded.axiom_pool(Q, 6, 600_000)
    assert [len(p) for p in pools] == default == [17, 12, 258]
    assert built and max(built) == 4


def test_a_new_theory_justifies_only_the_candidates(monkeypatch):
    names = tuple(bounded.VAR_POOL)
    assert [len(bounded._axiom_candidates(size, 600_000, names)) for size in (3, 4, 5)] == [17, 17, 421]
    monkeypatch.setattr(bounded, "_AXIOM_POOLS", {})
    bounded.axiom_pool(Q, 5, 600_000)
    calls = []

    def record(theory, f, cost=None):
        calls.append(f)
        return find_axiom_justification(theory, f, cost)

    monkeypatch.setattr(bounded, "find_axiom_justification", record)
    bounded.axiom_pool(chain_theories(2, 8)[1], 5, 600_000)
    assert calls == list(bounded._axiom_candidates(5, 600_000, names))


def test_regeneration_depth_is_limited_by_the_symbol_pool():
    with pytest.raises(ValueError):
        regeneration_chain(depth=99)


def test_leaf_bounded_generalizations_are_counted_without_being_built(monkeypatch):
    # every prefix line of this search leaves no room for a line after its
    # bounded generalizations, so each of them is a leaf
    built = []
    bgen = bounded.BGenJust

    def record(*args):
        built.append(args)
        return bgen(*args)

    monkeypatch.setattr(bounded, "BGenJust", record)
    r = enumerate_proofs(Q, parse_formula("0 = S(S(0))"), 24, SearchLimits(node_cap=4000))
    assert (r.outcome, r.nodes, "node_cap" in r.stopped_by) == ("budget_exhausted", 4001, True)
    assert built == []


STOPPED_BY_PINS = [
    # (phi, budget, node cap, outcome, stopped_by)
    ("0 = 0 -> 0 = 0", 24, 4000, "found", ()),
    ("!(0 = 0)", 10, 300_000, "none", ()),
    ("0 = S(0)", 9, 300_000, "none", ()),
    ("0 = S(0)", 11, 300_000, "budget_exhausted", ("pool_cap",)),
    ("0 = S(S(0))", 12, 300_000, "budget_exhausted", ("pool_cap",)),
    ("0 = S(S(0))", 24, 4000, "budget_exhausted", ("line_size", "pool_cap", "node_cap", "var_pool")),
    ("!(0 = 0)", 10, 5, "budget_exhausted", ("node_cap",)),
    ("forall y forall x (x = x)", 16, 4000, "budget_exhausted", ("line_size", "pool_cap")),
]


@pytest.mark.parametrize("text, budget, node_cap, outcome, stopped_by", STOPPED_BY_PINS)
def test_a_search_names_the_caps_that_stopped_it(text, budget, node_cap, outcome, stopped_by):
    r = enumerate_proofs(Q, parse_formula(text), budget, SearchLimits(node_cap=node_cap))
    assert (r.outcome, r.stopped_by) == (outcome, stopped_by)
