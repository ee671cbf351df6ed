"""The shape schemata on one table: `_PATTERNS` read by one `_schema_matcher`.

The matcher is compared with the hand-written matchers it replaced, kept
here as references, on verdict, justification and `symbol_comparisons`;
and each row of the table is compared with its line of the `calculus`
docstring."""

import random
import re

import pytest

from proofforge import bounded, calculus
from proofforge.bounded import formulas_of_size
from proofforge.calculus import (
    _MATCHERS,
    _PATTERNS,
    AxiomJust,
    Cost,
    TheoryAxiomJust,
    _match_compute,
    _match_eqsubst,
    _match_ind,
    _match_q1,
    _match_qax,
    _schema_matcher,
    could_be_axiom,
    find_axiom_justification,
    robinson_axioms,
)
from proofforge.corpus import derived_theorem_corpus, membership_formula_corpus
from proofforge.goedel import con_bounded, diagonalize, extend_with_axiom, induction_theory, standard_theory
from proofforge.syntax import (
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    ForAll,
    Implies,
    Not,
    Var,
    equal,
    is_sentence,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)

Q = standard_theory()

# --- the matchers the table replaced, as they were -----------------------------


def _match_p1(theory, f, cost):
    if isinstance(f, Implies) and isinstance(f.consequent, Implies):
        if equal(f.antecedent, f.consequent.consequent, cost):
            return AxiomJust("P1")
    return None


def _match_p2(theory, f, cost):
    # (A -> (B -> C)) -> ((A -> B) -> (A -> C))
    if not (isinstance(f, Implies) and isinstance(f.antecedent, Implies)):
        return None
    left = f.antecedent
    if not isinstance(left.consequent, Implies):
        return None
    a, b, c = left.antecedent, left.consequent.antecedent, left.consequent.consequent
    r = f.consequent
    if not (isinstance(r, Implies) and isinstance(r.antecedent, Implies) and isinstance(r.consequent, Implies)):
        return None
    ab, ac = r.antecedent, r.consequent
    if (
        equal(ab.antecedent, a, cost)
        and equal(ab.consequent, b, cost)
        and equal(ac.antecedent, a, cost)
        and equal(ac.consequent, c, cost)
    ):
        return AxiomJust("P2")
    return None


def _match_p3(theory, f, cost):
    # (!A -> !B) -> (B -> A)
    if not (isinstance(f, Implies) and isinstance(f.antecedent, Implies) and isinstance(f.consequent, Implies)):
        return None
    left, right = f.antecedent, f.consequent
    if not (isinstance(left.antecedent, Not) and isinstance(left.consequent, Not)):
        return None
    a, b = left.antecedent.body, left.consequent.body
    if equal(right.antecedent, b, cost) and equal(right.consequent, a, cost):
        return AxiomJust("P3")
    return None


def _match_q2(theory, f, cost):
    # forall x (A -> B) -> (forall x A -> forall x B)
    if not (isinstance(f, Implies) and isinstance(f.antecedent, ForAll) and isinstance(f.consequent, Implies)):
        return None
    q = f.antecedent
    if not isinstance(q.body, Implies):
        return None
    r = f.consequent
    if not (isinstance(r.antecedent, ForAll) and isinstance(r.consequent, ForAll)):
        return None
    if q.var != r.antecedent.var or q.var != r.consequent.var:
        return None
    if equal(r.antecedent.body, q.body.antecedent, cost) and equal(r.consequent.body, q.body.consequent, cost):
        return AxiomJust("Q2")
    return None


def _bq2_matcher(name, inner_type):
    # forall<= x b (A -> B) -> (Q<= x b A -> Q<= x b B)
    def match(theory, f, cost):
        if not (isinstance(f, Implies) and isinstance(f.antecedent, BoundedForAll) and isinstance(f.consequent, Implies)):
            return None
        q = f.antecedent
        if not isinstance(q.body, Implies):
            return None
        r = f.consequent
        if not (isinstance(r.antecedent, inner_type) and isinstance(r.consequent, inner_type)):
            return None
        if q.var != r.antecedent.var or q.var != r.consequent.var:
            return None
        if not (equal(q.bound, r.antecedent.bound, cost) and equal(q.bound, r.consequent.bound, cost)):
            return None
        if equal(r.antecedent.body, q.body.antecedent, cost) and equal(r.consequent.body, q.body.consequent, cost):
            return AxiomJust(name)
        return None

    return match


def _bcong_matcher(name, qtype):
    # b = b' -> (Q<= x b A -> Q<= x b' A)
    def match(theory, f, cost):
        if not (isinstance(f, Implies) and isinstance(f.antecedent, Eq) and isinstance(f.consequent, Implies)):
            return None
        b, b2 = f.antecedent.left, f.antecedent.right
        r = f.consequent
        if not (isinstance(r.antecedent, qtype) and isinstance(r.consequent, qtype)):
            return None
        if r.antecedent.var != r.consequent.var:
            return None
        if not (equal(r.antecedent.bound, b, cost) and equal(r.consequent.bound, b2, cost)):
            return None
        if equal(r.antecedent.body, r.consequent.body, cost):
            return AxiomJust(name)
        return None

    return match


def _match_eqrefl(theory, f, cost):
    if isinstance(f, Eq) and equal(f.left, f.right, cost):
        return AxiomJust("EQREFL", term=f.left)
    return None


OLD_MATCHERS = {
    "EQREFL": _match_eqrefl,
    "P1": _match_p1,
    "P3": _match_p3,
    "P2": _match_p2,
    "Q1": _match_q1,
    "Q2": _match_q2,
    "BQ2A": _bq2_matcher("BQ2A", BoundedForAll),
    "BQ2E": _bq2_matcher("BQ2E", BoundedExists),
    "BCONGA": _bcong_matcher("BCONGA", BoundedForAll),
    "BCONGE": _bcong_matcher("BCONGE", BoundedExists),
    "EQSUBST": _match_eqsubst,
    "QAX": _match_qax,
    "IND": _match_ind,
    "COMPUTE": _match_compute,
}


def old_find_axiom_justification(theory, f, cost=None):
    for matcher in OLD_MATCHERS.values():
        just = matcher(theory, f, cost)
        if just is not None:
            return just
    for i, ax in enumerate(theory.extra_axioms, start=1):
        if equal(f, ax, cost):
            return TheoryAxiomJust(i)
    return None


# --- the inputs ------------------------------------------------------------------

FORMULA_PARTS = [
    parse_formula(t)
    for t in (
        "0 = 0",
        "x = x",
        "x = 0",
        "y = S(0)",
        "!(x = y)",
        "0 = 0 -> x = x",
        "forall x (x = x)",
        "forall y (x = y -> y = x)",
        "forall<= y x (y = 0)",
        "exists<= x S(0) (x = x)",
    )
]
TERM_PARTS = [parse_term(t) for t in ("0", "x", "y", "S(0)", "x + y", "S(x) * 0")]
FORMULA_TYPES = (Eq, Not, Implies, ForAll, BoundedForAll, BoundedExists)


def near_instance(pattern, rng):
    """An instance of the pattern whose metavariable occurrences and binder
    variables agree or differ at random; now and then a node is swapped for
    a random part or a bounded quantifier for the other one."""
    chosen = {}

    def part(is_formula, key):
        if key in chosen and rng.random() < 0.75:
            x = chosen[key]
        else:
            x = rng.choice(FORMULA_PARTS if is_formula else TERM_PARTS)
            chosen.setdefault(key, x)
        if rng.random() < 0.3:  # an equal tree that is another object, so equal walks it
            return parse_formula(print_formula(x)) if is_formula else parse_term(print_term(x))
        return x

    def build(node):
        cls = type(node)
        if cls is Var:
            return part(node.name[0].isupper(), node.name)
        if rng.random() < 0.04:
            return rng.choice(FORMULA_PARTS if cls in FORMULA_TYPES else TERM_PARTS)
        if cls is BoundedForAll or cls is BoundedExists:
            if rng.random() < 0.1:
                cls = BoundedExists if cls is BoundedForAll else BoundedForAll
        args = []
        for name in cls.__match_args__:
            value = getattr(node, name)
            if name == "var":
                key = ("var", value)
                if key in chosen and rng.random() < 0.8:
                    value = chosen[key]
                else:
                    value = rng.choice("xyz")
                    chosen.setdefault(key, value)
                args.append(value)
            else:
                args.append(build(value))
        return cls(*args)

    return build(pattern)


def seeded_near_instances():
    rng = random.Random(1701)
    return [near_instance(pattern, rng) for pattern in _PATTERNS.values() for _ in range(400)]


def relevance_candidates(monkeypatch):
    """Every formula `bounded._relevance_instances` asks about for the
    membership corpus."""
    seen = []

    def record(theory, f, cost=None):
        seen.append(f)
        return find_axiom_justification(theory, f, cost)

    monkeypatch.setattr(bounded, "find_axiom_justification", record)
    for phi in membership_formula_corpus(random.Random(7), 40):
        bounded._relevance_instances(Q, phi, 40)
    monkeypatch.undo()
    return seen


def corpus_lines():
    samples = derived_theorem_corpus(Q, random.Random(5), 80)
    return [line.formula for s in samples for line in s.proof.lines]


def outcome(fn, theory, f):
    cost = Cost()
    return fn(theory, f, cost), cost.symbol_comparisons


# --- the differential test ---------------------------------------------------------


def test_the_table_agrees_with_the_hand_written_matchers(monkeypatch):
    formulas = (
        list(formulas_of_size(3))
        + list(formulas_of_size(4))
        + seeded_near_instances()
        + corpus_lines()
        + relevance_candidates(monkeypatch)
        + FORMULA_PARTS
        + list(robinson_axioms())
    )
    # a theory with extra axioms, so the search runs past the schemata
    ext = extend_with_axiom(Q, con_bounded(Q, 2), "prft1")
    accepted = {name: 0 for name in _PATTERNS}
    for f in formulas:
        for name in _PATTERNS:
            got = outcome(_MATCHERS[name], Q, f)
            assert got == outcome(OLD_MATCHERS[name], Q, f), (name, print_formula(f))
            accepted[name] += got[0] is not None
        for theory in (Q, induction_theory(), ext):
            assert outcome(find_axiom_justification, theory, f) == outcome(old_find_axiom_justification, theory, f), (
                print_formula(f)
            )
    # the near-instances hit every schema, not only its misses
    assert all(n >= 20 for n in accepted.values()), accepted


def test_a_formula_could_be_an_axiom_exactly_when_some_theory_takes_it(monkeypatch):
    open_instances = [
        parse_formula(t)
        for t in (
            "0 = y -> (forall x (x = y -> S(x) = y) -> forall x x = y)",  # IND
            "0 = y -> (forall x (x = y -> S(x) = S(y)) -> forall x x = y)",  # not IND
            "forall x x = y -> S(0) = y",  # Q1
            "y = 0 -> (y = y -> 0 = y)",  # EQSUBST
        )
    ]
    formulas = (
        list(formulas_of_size(3))
        + list(formulas_of_size(4))
        + seeded_near_instances()
        + corpus_lines()
        + relevance_candidates(monkeypatch)
        + FORMULA_PARTS
        + list(robinson_axioms())
        + open_instances
    )
    pa = induction_theory()
    for f in formulas:
        # a sentence is an axiom of the theory that adds it; an open formula
        # is an axiom line of some theory exactly when it is of PA
        assert could_be_axiom(f) == (is_sentence(f) or find_axiom_justification(pa, f) is not None), print_formula(f)
    assert [could_be_axiom(f) for f in open_instances] == [True, False, True, True]


def test_the_matchers_keep_their_names_and_order():
    assert list(_MATCHERS) == list(OLD_MATCHERS)
    assert set(_PATTERNS) == {"EQREFL", "P1", "P2", "P3", "Q2", "BQ2A", "BQ2E", "BCONGA", "BCONGE"}


def test_a_pattern_reads_succ_and_function_arguments():
    # a bounded-quantifier shift, `exists<= x b A -> exists<= x S(b) A`, and a function symbol
    a, b = Var("A"), Var("b")
    shift = _schema_matcher("SHIFT", Implies(BoundedExists("x", b, a), BoundedExists("x", parse_term("S(b)"), a)))
    assert shift(Q, parse_formula("exists<= y S(0) (y = y) -> exists<= y S(S(0)) (y = y)"), None) == AxiomJust("SHIFT")
    assert shift(Q, parse_formula("exists<= y S(0) (y = y) -> exists<= y S(0) (y = y)"), None) is None
    assert shift(Q, parse_formula("exists<= y S(0) (y = y) -> exists<= z S(S(0)) (y = y)"), None) is None
    fn = _schema_matcher("FN", Eq(DefFn("f", (b, Var("c"))), DefFn("f", (Var("c"), b))))
    assert fn(Q, Eq(DefFn("f", (Var("x"), Var("y"))), DefFn("f", (Var("y"), Var("x")))), None) == AxiomJust("FN")
    assert fn(Q, Eq(DefFn("f", (Var("x"), Var("y"))), DefFn("g", (Var("y"), Var("x")))), None) is None
    assert fn(Q, Eq(DefFn("f", (Var("x"), Var("y"))), DefFn("f", (Var("y"),))), None) is None
    assert fn(Q, Eq(DefFn("f", (Var("x"), Var("y"))), DefFn("f", (Var("x"), Var("x")))), None) is None


# --- QAX by root class -------------------------------------------------------------


def walk_qax(theory, f, cost):
    """`_match_qax` as it was: f compared by `equal` with each Robinson axiom
    in turn."""
    for i, ax in enumerate(robinson_axioms(), start=1):
        if equal(f, ax, cost):
            return AxiomJust("QAX", index=i)
    return None


def test_qax_by_root_class_agrees_with_the_walk():
    axioms = robinson_axioms()
    certificate = diagonalize(Q, parse_formula("x = 0")).equivalence
    formulas = (
        [f for size in (3, 4, 5) for f in formulas_of_size(size)]
        + list(axioms)
        + [parse_formula(print_formula(a)) for a in axioms]  # equal trees that are other objects
        + [Not(a) for a in axioms]
        + [line.formula for line in certificate.lines]
    )
    hits = 0
    for f in formulas:
        got = outcome(_match_qax, Q, f)
        assert got == outcome(walk_qax, Q, f), print_formula(f)
        assert _match_qax(Q, f, None) == got[0]
        hits += got[0] is not None
    # both copies of each axiom
    assert hits == 2 * len(axioms)


# --- the table and the docstring -------------------------------------------------


def with_placeholders(node):
    """The pattern with each formula metavariable A made the atom `pa = pa`."""
    if type(node) is Var:
        return Eq(Var("p" + node.name.lower()), Var("p" + node.name.lower())) if node.name.isupper() else node
    return type(node)(*(v if type(v) is str else with_placeholders(v) for v in (getattr(node, n) for n in node.__match_args__)))


def docstring_schema_lines():
    lines = {}
    for line in calculus.__doc__.splitlines():
        m = re.fullmatch(r"    ([A-Z][A-Z0-9]*) {2,}(\S.*)", line)
        if m:
            lines[m.group(1)] = m.group(2)
    return lines


@pytest.mark.parametrize("name", sorted(_PATTERNS))
def test_each_pattern_is_its_docstring_line(name):
    text = docstring_schema_lines()[name]
    atoms = re.sub(r"\b([A-Z])\b", lambda m: f"(p{m.group(1).lower()} = p{m.group(1).lower()})", text)
    assert parse_formula(atoms, deffn_arities={}) == with_placeholders(_PATTERNS[name]), text
