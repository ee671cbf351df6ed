"""Axiom schema recognition, the stored-proof checker, and proof text files."""

import operator
import random
import sys
import time
from dataclasses import fields, replace

import pytest

from proofforge import syntax
from proofforge.bench import _equal_value_atoms, mp_chain
from proofforge.calculus import (
    AxiomJust,
    ComputeJust,
    Cost,
    EvalBudget,
    LineCheck,
    MPJust,
    Proof,
    ProofLine,
    TheoryAxiomJust,
    TheorySpec,
    _match_compute,
    check_line,
    check_stored_proof,
    eval_term_in,
    match_schema,
    parse_proof_text,
    print_proof_text,
    proof_size,
    robinson_axioms,
)
from proofforge.corpus import derived_theorem_corpus
from proofforge.derivations import Builder
from proofforge.goedel import diagonalize, induction_theory, standard_theory
from proofforge.syntax import (
    ZERO,
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    ForAll,
    Implies,
    Not,
    Plus,
    Succ,
    Times,
    Var,
    Zero,
    equal,
    formula_size,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
    substitute,
)
from proofforge.verifier import proof_of
from test_syntax import _VISIT_ORDER, _reference_walk  # the recursive reference for `equal`

Q = standard_theory()


# --- schema recognition ------------------------------------------------------

POSITIVE_INSTANCES = [
    ("P1", "0 = 0 -> (S(0) = 0 -> 0 = 0)"),
    ("P2", "(0 = 0 -> (x = x -> y = y)) -> ((0 = 0 -> x = x) -> (0 = 0 -> y = y))"),
    ("P3", "(!(x = 0) -> !(y = 0)) -> (y = 0 -> x = 0)"),
    ("Q1", "forall x (x = x) -> S(0) = S(0)"),
    ("Q2", "forall x (0 = 0 -> x = x) -> (forall x (0 = 0) -> forall x (x = x))"),
    ("BQ2A", "forall<= x y (0 = 0 -> x = x) -> (forall<= x y (0 = 0) -> forall<= x y (x = x))"),
    ("BQ2E", "forall<= x y (x = x -> 0 = 0) -> (exists<= x y (x = x) -> exists<= x y (0 = 0))"),
    ("BCONGA", "y = z -> (forall<= x y (x = x) -> forall<= x z (x = x))"),
    ("BCONGE", "y = z -> (exists<= x y (x = x) -> exists<= x z (x = x))"),
    ("EQREFL", "S(S(0)) = S(S(0))"),
    ("EQSUBST", "x = y -> (x + 0 = 0 -> y + 0 = 0)"),
]


@pytest.mark.parametrize("schema, text", POSITIVE_INSTANCES, ids=[s for s, _ in POSITIVE_INSTANCES])
def test_schema_accepts_instances(schema, text):
    assert match_schema(Q, schema, parse_formula(text)) is not None


NEGATIVE_INSTANCES = [
    ("P1", "0 = 0 -> (S(0) = 0 -> S(0) = 0)"),
    ("P3", "(x = 0 -> y = 0) -> (y = 0 -> x = 0)"),
    ("Q1", "forall x (x = x) -> S(0) = 0"),
    ("EQREFL", "S(0) = S(S(0))"),
    ("EQSUBST", "x = y -> (x + 0 = 0 -> y + y = 0)"),
]


@pytest.mark.parametrize("schema, text", NEGATIVE_INSTANCES, ids=[s for s, _ in NEGATIVE_INSTANCES])
def test_schema_rejects_non_instances(schema, text):
    assert match_schema(Q, schema, parse_formula(text)) is None


def test_qax_matches_each_robinson_axiom_at_its_one_based_index():
    axioms = robinson_axioms()
    assert len(axioms) == 7
    for i, ax in enumerate(axioms, start=1):
        assert match_schema(Q, "QAX", ax) is not None
        # a stored `QAX i` names the i-th axiom, and no other
        assert check_stored_proof(Q, one_line(ax, AxiomJust("QAX", index=i))) == LineCheck(True)
        for wrong in (0, 8, i % 7 + 1):
            got = check_stored_proof(Q, one_line(ax, AxiomJust("QAX", index=wrong)))
            assert got == LineCheck(False, "line 1: not an instance of QAX"), wrong


def test_compute_accepts_only_true_closed_equations():
    assert match_schema(Q, "COMPUTE", parse_formula("S(0) + S(0) = S(S(0))")) is not None
    assert match_schema(Q, "COMPUTE", parse_formula("S(0) + S(0) = S(0)")) is None
    assert match_schema(Q, "COMPUTE", parse_formula("x + 0 = x")) is None  # not closed


def test_compute_walks_for_free_variables_only_when_evaluation_fails(monkeypatch):
    # the evaluator raises on a free variable, so an equation it evaluates
    # is closed; only one it cannot evaluate is walked, and then charged its
    # size if closed, nothing if open
    walks = []
    walk = syntax._free_names

    def record(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(syntax, "_free_names", record)
    nope = DefFn("nope", (ZERO,))
    cases = [
        # (equation, justification, symbol_comparisons, walked)
        (parse_formula("S(0) + S(0) = S(S(0))"), ComputeJust(value=2), 9, False),
        (parse_formula("S(0) + S(0) = S(0)"), None, 8, False),
        (Eq(nope, ZERO), None, 4, True),
        (parse_formula("x + 0 = x"), None, 0, True),
        (Eq(nope, Var("x")), None, 0, True),
    ]
    for f, just, charged, walked in cases:
        for cost in (Cost(), None):
            walks.clear()
            assert _match_compute(Q, f, cost) == just, print_formula(f)
            assert walks == ([f] if walked and cost is not None else []), print_formula(f)
        cost = Cost()
        _match_compute(Q, f, cost)
        assert cost.symbol_comparisons == charged, print_formula(f)
    # chain atoms, built, searched for and checked by record as certify does
    walks.clear()
    atoms = _equal_value_atoms(15, 6)
    b = Builder(Q)
    proof = b.proof([b.compute(f) for f in atoms][-1])
    assert proof_of(Q, proof, atoms[-1], Cost()).ok and check_stored_proof(Q, proof) == LineCheck(True)
    assert walks == []


def test_compute_refuses_an_open_equation_before_its_costly_closed_side():
    # bnd(dbl^18(S(0))) is 44^262144 - 1.  An open equation is refused
    # before that power is taken, whatever side the variable is on; the
    # closed equation is evaluated in full and charged its size
    base = Q.def_extensions
    powers = []

    def bnd(m, *, budget):
        value = base["bnd"].evaluator(m, budget=budget)
        powers.append(m)
        return value

    theory = TheorySpec("probed", def_extensions={"le": base["le"], "dbl": base["dbl"], "bnd": replace(base["bnd"], evaluator=bnd)})
    big = "bnd(" + "dbl(" * 18 + "S(0)" + ")" * 19
    for text in (f"le({big}, 0) = x", f"le({big}, x) = 0", f"le({big}, x) = x", f"x = le({big}, 0)"):
        f = parse_formula(text, deffn_arities=theory.arities())
        for cost in (Cost(), None):
            start = time.perf_counter()
            assert _match_compute(theory, f, cost) is None, text
            assert time.perf_counter() - start < 0.05, text
            assert powers == [], text
            assert cost is None or cost.symbol_comparisons == 0
    closed = parse_formula(f"le({big}, 0) = 0", deffn_arities=theory.arities())
    cost = Cost()
    assert _match_compute(theory, closed, cost) == ComputeJust(value=0)
    assert powers == [2**18] and cost.symbol_comparisons == formula_size(closed)


def test_match_schema_returns_the_justification_it_proves():
    q1 = parse_formula("forall x (x = x) -> S(0) = S(0)")
    assert match_schema(Q, "Q1", q1) == AxiomJust("Q1", term=parse_term("S(0)"))
    # x not free in the body: every t instantiates it, and the matcher names 0
    assert match_schema(Q, "Q1", parse_formula("forall x (0 = 0) -> 0 = 0")) == AxiomJust("Q1", term=ZERO)
    assert match_schema(Q, "EQREFL", parse_formula("S(0) = S(0)")) == AxiomJust("EQREFL", term=parse_term("S(0)"))
    for i, ax in enumerate(robinson_axioms(), start=1):
        assert match_schema(Q, "QAX", ax) == AxiomJust("QAX", index=i)
    assert match_schema(Q, "COMPUTE", parse_formula("S(0) * S(S(0)) = S(S(0))")) == ComputeJust(value=2)
    assert match_schema(Q, "P1", parse_formula("0 = 0 -> (S(0) = 0 -> 0 = 0)")) == AxiomJust("P1")


def test_match_schema_rejects_an_unknown_schema():
    with pytest.raises(ValueError, match="unknown schema 'P4'"):
        match_schema(Q, "P4", parse_formula("0 = 0"))


def test_induction_lines_are_refused_outside_an_induction_theory():
    ind = parse_formula("0 = 0 -> (forall x (x = x -> S(x) = S(x)) -> forall x x = x)")
    proof = one_line(ind, AxiomJust("IND"))
    r = check_line(Q, proof, 0)
    assert not r.ok and r.reason == "induction not enabled for this theory"
    assert match_schema(Q, "IND", ind) is None
    assert check_line(induction_theory(), proof, 0).ok
    assert match_schema(induction_theory(), "IND", ind) == AxiomJust("IND")


# --- the axioms are true: naive bounded-universe spot check ------------------


def universe_truth(f, env, n):
    """Evaluate over {0..n}, treating quantifiers as sweeps — a spot check,
    sound here because every axiom's witnesses stay below the sweep bound."""
    match f:
        case Eq(a, b):
            return term_value(a, env) == term_value(b, env)
        case Not(a):
            return not universe_truth(a, env, n)
        case Implies(a, b):
            return (not universe_truth(a, env, n)) or universe_truth(b, env, n)
        case ForAll(v, body):
            return all(universe_truth(body, {**env, v: k}, n) for k in range(n + 1))
    raise AssertionError(print_formula(f))


def term_value(t, env):
    from proofforge.syntax import Plus, Succ, Times, Var, Zero

    match t:
        case Zero():
            return 0
        case Var(name):
            return env[name]
        case Succ(a):
            return term_value(a, env) + 1
        case Plus(a, b):
            return term_value(a, env) + term_value(b, env)
        case Times(a, b):
            return term_value(a, env) * term_value(b, env)
    raise AssertionError(t)


@pytest.mark.parametrize("idx", range(7))
def test_robinson_axioms_hold_on_initial_segment(idx):
    # witnesses needed by the successor axiom are below the sweep cap as long
    # as the cap exceeds every quantified value, so 12 with values under 6
    ax = robinson_axioms()[idx]
    assert universe_truth(ax, {}, 12)


# --- stored-proof checking ----------------------------------------------------


def one_line(formula, just):
    return Proof((ProofLine(formula, just),))


def test_stored_proof_accepts_explicit_justifications():
    p = Proof(
        (
            ProofLine(parse_formula("0 = 0"), AxiomJust("EQREFL", term=numeral(0))),
            ProofLine(
                parse_formula("0 = 0 -> (S(0) = S(0) -> 0 = 0)"),
                AxiomJust("P1"),
            ),
            ProofLine(parse_formula("S(0) = S(0) -> 0 = 0"), MPJust(1, 0)),
        )
    )
    r = check_stored_proof(Q, p)
    assert r.ok, r.reason


def test_stored_proof_rejects_wrong_payload():
    p = one_line(parse_formula("0 = 0"), AxiomJust("EQREFL", term=numeral(1)))
    assert not check_stored_proof(Q, p).ok


def test_stored_proof_rejects_forward_reference():
    p = Proof(
        (
            ProofLine(parse_formula("S(0) = S(0) -> 0 = 0"), MPJust(1, 2)),
            ProofLine(parse_formula("0 = 0"), ComputeJust()),
        )
    )
    assert not check_stored_proof(Q, p).ok


def test_theory_axiom_justification_is_one_based():
    from proofforge.goedel import con_bounded, extend_with_axiom

    con = con_bounded(Q, 2)
    ext = extend_with_axiom(Q, con, "prft1")
    assert check_stored_proof(ext, one_line(con, TheoryAxiomJust(1))).ok
    assert not check_stored_proof(ext, one_line(con, TheoryAxiomJust(2))).ok


# --- proof size and text format ------------------------------------------------


def test_proof_size_counts_line_separators():
    a = parse_formula("0 = 0")  # size 3
    b = parse_formula("S(0) = S(0)")  # size 5
    two = Proof((ProofLine(a, ComputeJust()), ProofLine(b, ComputeJust())))
    assert proof_size(one_line(a, ComputeJust())) == 3
    assert proof_size(two) == 3 + 5 + 1


def test_proof_text_round_trip_on_derived_corpus():
    rng = random.Random(551)
    for sample in derived_theorem_corpus(Q, rng, 60):
        text = print_proof_text(sample.proof)
        again = parse_proof_text(text, Q.arities())
        assert again == sample.proof, sample.strategy


def test_every_accepted_justification_round_trips_through_text():
    from proofforge.calculus import _MATCHERS, BGenJust, GenJust

    ind = parse_formula("0 = 0 -> (forall x (x = x -> S(x) = S(x)) -> forall x x = x)")
    con = parse_formula("forall x (x = x)")
    ext = TheorySpec("ext", extra_axioms=(con,), def_extensions=Q.def_extensions)
    formulas = [
        parse_formula(t)
        for t in (
            "0 = 0",
            "0 = 0 -> (S(0) = S(0) -> 0 = 0)",
            "S(0) = S(0) -> 0 = 0",
            "forall x (0 = 0)",
            "forall<= x S(0) (0 = 0)",
            "forall x (x = x) -> 0 = 0",
            "x = y -> (x + 0 = 0 -> y + 0 = 0)",
        )
    ] + [robinson_axioms()[0], ind, con]
    payloads = [None, ZERO, numeral(1), Var("x")]
    cands = [AxiomJust(s, i, t) for s in [*_MATCHERS, "P4"] for i in (None, 1, 8) for t in payloads]
    cands += [ComputeJust(), ComputeJust(0), ComputeJust(1), TheoryAxiomJust(1), TheoryAxiomJust(2)]
    cands += [MPJust(a, b) for a in range(4) for b in range(4)]
    cands += [GenJust(k, v) for k in range(4) for v in "xy"] + [BGenJust(k, "x", b) for k in range(4) for b in payloads[1:]]
    accepted = set()
    for theory in (Q, induction_theory(), ext):
        for i, f in enumerate(formulas):
            for j in cands:
                lines = [ProofLine(g) for g in formulas[:i]] + [ProofLine(f, j)]
                if check_line(theory, Proof(tuple(lines)), i).ok:
                    accepted.add(j)
                    again = parse_proof_text(print_proof_text(one_line(f, j)), Q.arities())
                    assert again.lines[0].justification == j, (print_formula(f), j)
    assert {AxiomJust("Q1"), AxiomJust("EQREFL"), AxiomJust("QAX"), AxiomJust("IND")} <= accepted
    assert {AxiomJust("EQREFL", term=ZERO), AxiomJust("QAX", index=1), MPJust(1, 0), TheoryAxiomJust(1)} <= accepted


def test_bare_payload_schemata_parse_and_check():
    for text in ("1. forall x (x = x) -> 0 = 0 ; Q1", "1. 0 = 0 ; EQREFL", "1. forall x (!(S(x) = 0)) ; QAX"):
        proof = parse_proof_text(text)
        assert check_stored_proof(Q, proof).ok, text
        assert print_proof_text(proof) == text + "\n"


def test_stored_proof_refuses_a_payload_its_schema_does_not_take():
    zero = parse_formula("0 = 0")
    assert check_line(Q, one_line(zero, AxiomJust("COMPUTE")), 0).reason == "no axiom schema COMPUTE"
    assert check_line(Q, one_line(zero, AxiomJust("P4")), 0).reason == "no axiom schema P4"
    assert check_line(Q, one_line(zero, AxiomJust("EQREFL", index=1)), 0).reason == "EQREFL takes no such payload"
    ax = robinson_axioms()[0]
    assert check_line(Q, one_line(ax, AxiomJust("QAX", index=1, term=ZERO)), 0).reason == "QAX takes no such payload"


@pytest.mark.parametrize(
    "bad, message_part",
    [
        ("", "empty"),
        ("1. 0 = 0", "expected"),
        ("2. 0 = 0 ; COMPUTE", "out of order"),
        ("1. 0 = 0 ; NONSENSE", "justification"),
    ],
)
def test_proof_text_parse_errors(bad, message_part):
    with pytest.raises(ValueError, match=message_part):
        parse_proof_text(bad)


def test_proof_text_lines_end_at_newline_alone():
    # a form feed, a line separator or a carriage return does not end a
    # line; a "\r" before "\n" is read as a space
    proof = parse_proof_text("1. 0 = 0 ; COMPUTE\x0c\n2. 0 = 0 ; COMPUTE\r\n")
    assert len(proof.lines) == 2
    with pytest.raises(ValueError, match="proof line 1: unexpected character ';'"):
        parse_proof_text("1. 0 = 0 ; COMPUTE\u20282. 0 = 0 ; COMPUTE\n")
    with pytest.raises(ValueError, match="proof line 2: index 3 out of order"):
        parse_proof_text("1. 0 = 0 ; COMPUTE\x1c\n3. 0 = 0 ; COMPUTE\n")


def test_eval_term_in_handles_definitional_symbols():
    assert eval_term_in(Q, parse_formula("S(0) + S(S(0)) = 0").left) == 3
    assert eval_term_in(Q, DefFn("dbl", (numeral(3),))) == 6
    assert eval_term_in(Q, DefFn("le", (numeral(2), numeral(5)))) == 1


def test_eval_term_in_reads_variables_from_env():
    t = parse_term("x * S(y) + dbl(x)")
    assert eval_term_in(Q, t, env={"x": 3, "y": 4}) == 3 * 5 + 6
    assert eval_term_in(Q, t, env={"x": 0, "y": 9}) == 0
    with pytest.raises(ValueError, match="'y'"):
        eval_term_in(Q, t, env={"x": 3})
    with pytest.raises(ValueError, match="'x'"):
        eval_term_in(Q, Var("x"))
    with pytest.raises(KeyError, match="dbl"):
        eval_term_in(TheorySpec("base"), t, env={"x": 3, "y": 4})


def _eval_cost(t):
    b = EvalBudget()
    eval_term_in(Q, t, b)
    return b.used


def test_eval_term_in_evaluates_a_shared_closed_node_once():
    c = parse_term("dbl(S(S(0))) * S(S(0))")
    shared, copied = EvalBudget(), EvalBudget()
    assert eval_term_in(Q, Plus(c, c), shared) == 16
    # a copy parsed apart, or built node by node, is the same node
    again = parse_term("dbl(S(S(0))) * S(S(0))")
    assert again is c and _fresh(c) is c
    assert eval_term_in(Q, Plus(c, again), copied) == 16
    # the second visit of the shared node is a memo hit and costs nothing
    assert shared.used == copied.used == _eval_cost(c) + 1
    # a shared open node is evaluated at each visit: the root, then Plus and
    # Var twice, and c once
    x_plus_c = Plus(Var("x"), c)
    b = EvalBudget()
    assert eval_term_in(Q, Plus(x_plus_c, x_plus_c), b, env={"x": 1}) == 18
    assert b.used == 1 + 2 * 2 + _eval_cost(c)



# --- shared nodes and identity-first equality ---------------------------------


def _fresh(node):
    """`node` rebuilt node by node from its fields, which interning makes
    `node` itself.  Built without recursion: a node's fields are copied onto
    `out` in order, then the node is rebuilt from the last of them, as the
    marker [constructor, number of fields] says."""
    out: list = []
    stack = [node]
    while stack:
        x = stack.pop()
        if type(x) is list:
            make, n = x
            k = len(out) - n
            parts = out[k:]
            del out[k:]
            out.append(make(*parts))
        elif isinstance(x, str):
            out.append(x)
        else:
            parts = x if isinstance(x, tuple) else [getattr(x, f.name) for f in fields(x)]
            stack.append([_tuple if isinstance(x, tuple) else type(x), len(parts)])
            stack += reversed(parts)
    return out[0]


def _tuple(*parts):
    return parts


def _with_parts(formulas):
    """The formulas and the parts modus ponens and generalization compare on
    their own: implication halves and quantifier bodies."""
    out = []
    for f in formulas:
        out.append(f)
        if isinstance(f, Implies):
            out += [f.antecedent, f.consequent]
        elif isinstance(f, (ForAll, BoundedForAll, BoundedExists)):
            out.append(f.body)
    return out


def _assert_separates(formulas):
    """Each formula is `equal` to a fresh copy of itself and of no other, with
    the verdicts and nodes compared of the recursive reference walk."""
    __tracebackhide__ = True
    copies = [_fresh(f) for f in formulas]
    equal_pairs = []
    for i, a in enumerate(formulas):
        for j, b in enumerate(copies):
            reference = _reference_walk(a, b)
            cost = Cost()
            assert (equal(a, b, cost), cost.symbol_comparisons) == reference, (i, j)
            if reference[0]:
                equal_pairs.append((i, j))
    assert equal_pairs == [(i, i) for i in range(len(formulas))]


def test_flat_keys_separate_function_symbols_arities_and_binders():
    # named for the flat keys this comparison once went through
    x, y = Var("x"), Var("y")
    terms = [
        DefFn("f", (x,)),
        DefFn("g", (x,)),
        DefFn("f", (x, x)),
        DefFn("f", (x, y)),
        DefFn("f", (y, x)),
        DefFn("f", ()),
        DefFn("g", ()),
        DefFn("f", (DefFn("f", (x,)),)),
        DefFn("f", (DefFn("g", (x,)),)),
        DefFn("f", (DefFn("f", (x, x)),)),
        Succ(DefFn("f", (x,))),
        Var("f"),
    ]
    _assert_separates([Eq(t, u) for t in terms for u in terms[:4]])
    body, bound = Eq(x, y), Var("z")
    binders = []
    for v in ("x", "y", "x'"):
        binders += [BoundedForAll(v, bound, body), BoundedExists(v, bound, body), ForAll(v, body)]
    binders += [BoundedForAll("x", Var("w"), body), BoundedExists("x", Succ(bound), body)]
    wrapped = [Not(q) for q in binders] + [Implies(body, q) for q in binders] + [Implies(q, body) for q in binders]
    _assert_separates(binders + wrapped)


def test_flat_keys_take_any_variable_name():
    # names the parser would refuse, control characters and a lone surrogate among them
    names = ["", "\0", "\1", "\4", "\6", "0", "S", "x\0", "\ud800", "é", chr(sys.maxunicode), "x" * 1000, "a b"]
    formulas = []
    for n in names:
        v = Var(n)
        formulas += [Eq(v, ZERO), Eq(Plus(v, ZERO), v), Eq(DefFn(n, (v,)), ZERO), ForAll(n, Eq(v, v))]
        formulas.append(BoundedExists(n, v, Eq(v, DefFn(n, ()))))
    _assert_separates(formulas)


def test_deep_chains_compare_without_recursion():
    def negations(n, atom):
        for _ in range(n):
            atom = Not(atom)
        return atom

    a = negations(20_000, Eq(ZERO, ZERO))
    b = negations(20_000, Eq(ZERO, Succ(ZERO)))
    deep = Eq(numeral(50_000), ZERO)
    # (pair, verdict, nodes compared), counted by hand: one per pair of Nots,
    # Ss or =s and per pair of ZERO with itself, and one for the mismatch
    cases = [
        ((a, b), False, 20_003),
        ((b, a), False, 20_003),
        ((a, negations(20_000, Eq(ZERO, ZERO))), True, 20_003),
        ((deep, Eq(numeral(50_000), ZERO)), True, 50_003),
        ((deep, Eq(numeral(49_999), ZERO)), False, 50_001),
    ]
    for n, ((x, y), verdict, compared) in enumerate(cases):
        cost = Cost()
        same = equal(x, y, cost)  # not in the assert, whose message would print the trees
        assert (same, cost.symbol_comparisons) == (verdict, compared), n


_TERM_TYPES = (Var, Zero, Succ, Plus, Times, DefFn)


def _plain_walk(a, b) -> tuple[bool, int]:
    """The verdict and the node pairs compared of `_reference_walk`, without
    recursion, so that it takes the deep chains too: it walks a pair of one
    object node by node like any other."""
    n = 0
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        n += 1
        if type(x) is not type(y) or any(getattr(x, k, None) != getattr(y, k, None) for k in ("name", "symbol", "var")):
            return False, n
        if type(x) is DefFn and len(x.args) != len(y.args):
            return False, n
        order = _VISIT_ORDER.get(type(x), lambda z: [])
        stack += reversed(list(zip(order(x), order(y))))
    return True, n


def _assert_identity_agrees(pairs):
    """`equal` gives the pairs the verdicts and symbol_comparisons of the
    plain walk, which takes no shortcut for a pair of one object."""
    __tracebackhide__ = True  # a failure must not print the pairs: repr recurses
    for n, (a, b) in enumerate(pairs):
        cost = Cost()
        same = equal(a, b, cost)  # not in the assert, whose message would print the trees
        assert (same, cost.symbol_comparisons) == _plain_walk(a, b), n


def _with_terms(formulas):
    """The formulas, their parts and the two sides of every atom among them."""
    out = _with_parts(formulas)
    return out + [side for f in out if isinstance(f, Eq) for side in (f.left, f.right)]


def _line_pairs(rng, formulas, n):
    """Pairs of nodes of the lines, their parts and their atoms' sides, which
    share objects: every distinct node with itself and n random pairs of
    terms and of formulas."""
    nodes = _with_terms(formulas)
    first = sorted({id(x): i for i, x in reversed(list(enumerate(nodes)))}.values())
    at = [(i, i) for i in first]
    for group in ([i for i in first if type(nodes[i]) in _TERM_TYPES], [i for i in first if type(nodes[i]) not in _TERM_TYPES]):
        at += [(rng.choice(group), rng.choice(group)) for _ in range(n if group else 0)]
    return [(nodes[i], nodes[j]) for i, j in at]


def test_identity_first_equality_agrees_with_the_walk_on_the_derived_corpus():
    rng = random.Random(777)
    for sample in derived_theorem_corpus(Q, rng, 40):
        _assert_identity_agrees(_line_pairs(rng, [ln.formula for ln in sample.proof.lines], 200))


def test_identity_first_equality_agrees_with_the_walk_on_certificates():
    rng = random.Random(6)
    theory = standard_theory()
    for shape in ("x = 0", "!(x = 0)"):
        built = diagonalize(theory, parse_formula(shape)).equivalence
        parsed = parse_proof_text(print_proof_text(built), theory.arities())
        for proof in (built, parsed):
            _assert_identity_agrees(_line_pairs(rng, [ln.formula for ln in proof.lines], 300))
        # the two proofs hold their equal lines as one object
        lines = [[ln.formula for ln in proof.lines] for proof in (built, parsed)]
        assert all(map(operator.is_, *lines))
        _assert_identity_agrees(list(zip(*lines)))


def test_identity_first_equality_on_chain_atoms_and_lines():
    # left-folded + and * chains over one ZERO, their prefixes one object:
    # most pairs meet a right operand that is one object
    atoms = _equal_value_atoms(64, 70)
    _assert_identity_agrees([(a, b) for a in atoms for b in atoms])
    proof, _ = mp_chain(Q, 60, 24)
    parsed = parse_proof_text(print_proof_text(proof), Q.arities())
    lines = _with_parts([ln.formula for ln in parsed.lines])
    _assert_identity_agrees([(a, b) for a in lines for b in lines])


def test_identity_first_equality_counts_a_mismatch_below_a_shared_prefix():
    s, x = numeral(300), Var("x")
    one, two = Succ(ZERO), Succ(Succ(ZERO))
    atom = Eq(s, s)
    pairs = [
        # the consequents are one object, the antecedents part at their last node
        (Implies(Eq(s, ZERO), atom), Implies(Eq(s, one), atom)),
        # the consequents part first: the shared antecedent is never reached
        (Implies(atom, Eq(s, ZERO)), Implies(atom, Eq(s, one))),
        (Eq(Plus(s, ZERO), s), Eq(Plus(s, one), s)),
        (Eq(Plus(one, s), s), Eq(Plus(two, s), s)),
        (Eq(Times(s, two), x), Eq(Times(s, two), Var("y"))),
        (Eq(DefFn("pair", (s, x)), s), Eq(DefFn("pair", (s, ZERO)), s)),
        (Eq(DefFn("pair", (x, s)), s), Eq(DefFn("pair", (ZERO, s)), s)),
        (BoundedForAll("z", s, atom), BoundedForAll("z", s, Eq(s, one))),
        (BoundedExists("z", s, atom), BoundedExists("z", Succ(s), atom)),
        (ForAll("z", Not(atom)), ForAll("z", Not(Eq(s, Succ(s))))),
        (Not(Implies(atom, atom)), Not(Implies(atom, Eq(Succ(s), s)))),
        (s, Succ(s)),
        (Plus(s, s), Plus(s, Succ(s))),
    ]
    # sums whose right operands are one object, matching and not
    v = Var("v")
    same, other = Eq(Plus(v, s), s), Eq(Plus(v, s), Succ(s))
    pairs += [(same, same), (same, other), (Implies(same, other), Implies(same, same))]
    pairs += [(Implies(other, same), Implies(same, same)), (Not(same), Not(same))]
    pairs += [(Plus(v, s), Plus(x, s)), (Times(Plus(v, s), s), Times(Plus(v, s), s)), (Plus(Times(v, s), s), Plus(Plus(v, s), s))]
    _assert_identity_agrees(pairs + [(b, a) for a, b in pairs])


def test_identity_first_equality_on_deep_chains():
    # the plain walk goes down these chains node by node, without recursion
    def wrap(ctor, n, node):
        for _ in range(n):
            node = ctor(node)
        return node

    sizes = (0, 1, 1299, 1300, 1301)
    atoms = [Eq(numeral(n), numeral(m)) for n in sizes for m in sizes]
    atoms += [Eq(Plus(numeral(1300), ZERO), numeral(1300)), Eq(DefFn("dbl", (numeral(650),)), numeral(1300))]
    _assert_identity_agrees([(a, b) for a in atoms for b in atoms])
    deep = wrap(Succ, 50_000, ZERO)
    assert wrap(Succ, 50_000, Zero()) is deep
    _assert_identity_agrees([(deep, deep), (Succ(deep), deep), (Eq(deep, ZERO), Eq(deep, ZERO)), (Eq(ZERO, deep), Eq(ZERO, Succ(deep)))])
    atom = Eq(ZERO, ZERO)
    chain = wrap(Not, 20_000, atom)
    wrong = wrap(Not, 20_000, Eq(ZERO, Succ(ZERO)))
    _assert_identity_agrees([(chain, chain), (Implies(chain, atom), Implies(chain, atom)), (Implies(atom, chain), Implies(atom, wrong))])


def test_builder_gives_equal_formulas_one_line():
    builder = Builder(Q)
    f = parse_formula("S(0) + S(0) = S(S(0))")
    first = builder.compute(f)
    assert builder.compute(parse_formula("S(0) + S(0) = S(S(0))")) == first
    assert builder.compute(_fresh(f)) == first
    p1 = builder.axiom("P1", Implies(f, Implies(_fresh(f), f)))
    assert builder.axiom("P1", _fresh(Implies(f, Implies(f, f)))) == p1
    assert builder.mp(p1, first) == p1 + 1
    # the lines hold one object per distinct subtree
    line = builder.formula_at(p1)
    assert line.antecedent is line.consequent.antecedent is line.consequent.consequent is builder.formula_at(first)
    assert builder.formula_at(p1 + 1) is line.consequent
    assert builder.axiom("EQREFL", Eq(f.left, _fresh(f.left)), term=_fresh(f.left)) == p1 + 2
    proof = builder.proof(p1 + 2)
    assert proof.lines[-1].justification.term is proof.lines[-1].formula.left is line.antecedent.left
    assert check_stored_proof(Q, proof).ok
