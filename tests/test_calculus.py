"""Axiom schema recognition, the stored-proof checker, and proof text files."""

import random

import pytest

from proofforge.calculus import (
    AxiomJust,
    ComputeJust,
    EvalBudget,
    MPJust,
    Proof,
    ProofLine,
    TheoryAxiomJust,
    TheorySpec,
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
from proofforge.goedel import induction_theory, standard_theory
from proofforge.syntax import (
    ZERO,
    DefFn,
    Eq,
    ForAll,
    Implies,
    Not,
    Plus,
    Var,
    exists,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
    substitute,
)

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
        assert match_schema(Q, "QAX", ax, index=i) is not None
        assert match_schema(Q, "QAX", ax) is not None
        wrong = i % 7 + 1
        assert match_schema(Q, "QAX", ax, index=wrong) is None


def test_compute_accepts_only_true_closed_equations():
    assert match_schema(Q, "COMPUTE", parse_formula("S(0) + S(0) = S(S(0))")) is not None
    assert match_schema(Q, "COMPUTE", parse_formula("S(0) + S(0) = S(0)")) is None
    assert match_schema(Q, "COMPUTE", parse_formula("x + 0 = x")) is None  # not closed


def test_match_schema_returns_the_justification_it_proves():
    q1 = parse_formula("forall x (x = x) -> S(0) = S(0)")
    assert match_schema(Q, "Q1", q1) == AxiomJust("Q1", term=parse_term("S(0)"))
    # x not free in the body: every t instantiates it, and the matcher names 0
    assert match_schema(Q, "Q1", parse_formula("forall x (0 = 0) -> 0 = 0")) == AxiomJust("Q1", term=ZERO)
    assert match_schema(Q, "EQREFL", parse_formula("S(0) = S(0)")) == AxiomJust("EQREFL", term=parse_term("S(0)"))
    for i, ax in enumerate(robinson_axioms(), start=1):
        assert match_schema(Q, "QAX", ax) == AxiomJust("QAX", index=i)
        assert match_schema(Q, "QAX", ax, index=i) == AxiomJust("QAX", index=i)
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
    assert eval_term_in(Q, Plus(c, parse_term("dbl(S(S(0))) * S(S(0))")), copied) == 16
    # the second visit of the shared node is a memo hit and costs nothing
    assert shared.used == _eval_cost(c) + 1 < copied.used
    # a shared open node is evaluated at each visit: the root, then Plus and
    # Var twice, and c once
    x_plus_c = Plus(Var("x"), c)
    b = EvalBudget()
    assert eval_term_in(Q, Plus(x_plus_c, x_plus_c), b, env={"x": 1}) == 18
    assert b.used == 1 + 2 * 2 + _eval_cost(c)

