"""Codes, the arithmetized substitution/diagonal operators, and eval_delta0."""

import random

import pytest

from proofforge.calculus import EvalBudget, EvalBudgetExceeded, eval_term_in
from proofforge.corpus import diagonal_shapes, random_delta0_sentence
from proofforge.goedel import (
    CodingError,
    binary_numeral,
    code_to_tokens,
    con_bounded,
    decode_formula,
    decode_proof,
    diagonalize,
    encode_formula,
    encode_proof,
    eval_delta0,
    goedel_sentence_bounded,
    make_numeral,
    provability_formula,
    refutation_target,
    standard_theory,
    tokens_to_code,
)
from proofforge.reference import sentence_truth
from proofforge.syntax import (
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    Not,
    Plus,
    Times,
    Var,
    formula_size,
    numeral,
    numeral_value,
    parse_formula,
    print_formula,
    substitute,
)
from proofforge.verifier import proof_of

Q = standard_theory()


# --- coding pins and round trips ---------------------------------------------


def test_code_pins():
    assert encode_formula(parse_formula("0 = 0")) == 9725
    assert encode_formula(parse_formula("!(0 = 0)")) == 520829
    assert encode_formula(refutation_target()) == 520829


def test_digit_count_equals_size_metric():
    rng = random.Random(40177)
    for _ in range(400):
        f = random_delta0_sentence(rng)
        code = encode_formula(f)
        digits = 0
        while code:
            code //= 44
            digits += 1
        assert digits == formula_size(f), print_formula(f)


def test_decode_inverts_encode():
    rng = random.Random(40178)
    for _ in range(400):
        f = random_delta0_sentence(rng)
        assert decode_formula(encode_formula(f)) == f


def test_token_round_trip_and_bad_codes():
    toks = ["0", "=", "0"]
    assert code_to_tokens(tokens_to_code(toks)) == toks
    with pytest.raises(CodingError):
        decode_formula(1)  # not a well-formed token stream
    with pytest.raises(CodingError):
        code_to_tokens(0)


def test_proof_codes_round_trip():
    from proofforge.calculus import ComputeJust, Proof, ProofLine

    p = Proof(
        (
            ProofLine(parse_formula("0 = 0"), ComputeJust()),
            ProofLine(parse_formula("S(0) = S(0)"), ComputeJust()),
        )
    )
    assert decode_proof(encode_proof(p)).lines[1].formula == parse_formula("S(0) = S(0)")


# --- numerals ------------------------------------------------------------------


def test_binary_numerals_are_logarithmic_and_correct():
    for n in (0, 1, 2, 5, 44, 9725, 520829):
        t = binary_numeral(n)
        assert eval_term_in(Q, t) == n
    from proofforge.syntax import term_size

    assert term_size(binary_numeral(2**20)) < 50
    assert term_size(make_numeral(6, "unary")) == 7
    assert numeral_value(make_numeral(6, "unary")) == 6


# --- the arithmetized operators match the syntactic ones -----------------------


def test_sub_operator_matches_syntactic_substitution():
    phi = parse_formula("x = x")
    c = encode_formula(phi)
    for d in (0, 1, 7):
        expected = encode_formula(substitute(phi, "x", binary_numeral(d)))
        got = eval_term_in(Q, DefFn("sub", (binary_numeral(c), binary_numeral(d))), EvalBudget(10**9))
        assert got == expected


def test_diag_operator_is_self_application():
    phi = parse_formula("x = x")
    c = encode_formula(phi)
    expected = encode_formula(substitute(phi, "x", binary_numeral(c)))
    got = eval_term_in(Q, DefFn("diag", (binary_numeral(c),)), EvalBudget(10**9))
    assert got == expected


def test_prft_recognizes_real_proofs_and_rejects_junk():
    from proofforge.calculus import ComputeJust, Proof, ProofLine

    phi = parse_formula("0 = 0")
    proof = Proof((ProofLine(phi, ComputeJust()),))
    p_code = encode_proof(proof)
    f_code = encode_formula(phi)
    args = (binary_numeral(p_code), binary_numeral(f_code))
    assert eval_term_in(Q, DefFn("prft", args), EvalBudget(10**9)) == 1
    wrong = (binary_numeral(p_code), binary_numeral(encode_formula(parse_formula("S(0) = 0"))))
    assert eval_term_in(Q, DefFn("prft", wrong), EvalBudget(10**9)) == 0
    junk = (binary_numeral(12345), binary_numeral(f_code))
    assert eval_term_in(Q, DefFn("prft", junk), EvalBudget(10**9)) == 0


# --- eval_delta0 ---------------------------------------------------------------


def test_eval_agrees_with_reference_evaluator():
    rng = random.Random(40179)
    disagreements = 0
    for _ in range(2_000):
        phi = random_delta0_sentence(rng)
        if eval_delta0(Q, phi) != sentence_truth(phi):
            disagreements += 1
    assert disagreements == 0


def test_eval_budget_is_enforced():
    wide = parse_formula("forall<= x S(S(S(S(S(S(0)))))) (forall<= y x (x + y = y + x))")
    assert eval_delta0(Q, wide)
    with pytest.raises(EvalBudgetExceeded):
        eval_delta0(Q, wide, budget=EvalBudget(10))


def test_eval_rejects_open_formulas():
    with pytest.raises(ValueError):
        eval_delta0(Q, parse_formula("x = x"))


def test_eval_shares_a_closed_node_between_a_bound_and_an_open_term():
    # one object c is both the quantifier bound and a summand next to the
    # bound variables, so the memo sees it while the sweep changes y and z
    c = Plus(numeral(2), Times(numeral(1), numeral(1)))
    y, z = Var("y"), Var("z")
    sentences = [
        BoundedForAll("y", c, BoundedExists("z", c, Eq(Plus(y, c), Plus(c, z)))),
        BoundedForAll("y", c, Not(Eq(Times(y, c), c))),
        BoundedExists("y", c, Eq(Times(y, c), Plus(c, Plus(c, c)))),
        BoundedForAll("y", c, BoundedExists("z", Plus(y, c), Eq(z, Plus(y, c)))),
    ]
    assert [eval_delta0(Q, s) for s in sentences] == [sentence_truth(s) for s in sentences] == [True, False, True, True]


# work of the con_bounded sweeps; `before` is the count when every visit of a
# closed node cost one unit, an upper bound that memo hits may only lower
@pytest.mark.parametrize(
    "m, mode, used, before",
    [
        (1, "binary", 615, 706),
        (2, "binary", 23_240, 27_115),
        (3, "binary", 1_094_242, 1_264_613),
        (1, "unary", 611, 702),
        (2, "unary", 23_231, 27_106),
        (3, "unary", 1_094_234, 1_264_605),
    ],
)
def test_con_bounded_eval_work_is_pinned(m, mode, used, before):
    budget = EvalBudget(10**10)
    assert eval_delta0(Q, con_bounded(Q, m, numeral_mode=mode), budget=budget) is True
    assert budget.used == used <= before


# --- fixed points ---------------------------------------------------------------


def test_diagonalize_produces_a_checkable_fixed_point():
    psi = parse_formula("x = x")
    r = diagonalize(Q, psi, "x")
    # the fixed point really is psi at its own code
    assert r.psi_at_code == substitute(psi, "x", binary_numeral(r.code))
    assert encode_formula(r.sentence) == r.code
    assert proof_of(Q, r.equivalence, r.biconditional)


def test_diagonal_shape_corpus_has_enough_variety():
    shapes = diagonal_shapes(Q)
    assert len(shapes) >= 20
    texts = {print_formula(s) for s in shapes}
    assert len(texts) == len(shapes)


def test_bounded_goedel_sentence_is_true_at_desk_scale():
    # m = 2: the sweep space is tiny, the sentence says "I have no proof
    # within 2 tokens", and indeed no 2-token proof of anything exists
    g = goedel_sentence_bounded(Q, 2)
    assert eval_delta0(Q, g.sentence, budget=10**9) is True


def test_con_sizes_track_log_m():
    sizes = {m: formula_size(con_bounded(Q, m)) for m in (2, 4, 1024)}
    assert sizes[2] == 32
    assert sizes[4] == 33
    assert sizes[1024] == 41
    import math

    for m, s in sizes.items():
        assert s <= math.log2(m) + 31.0


def test_provability_formula_is_delta0_with_one_free_variable():
    from proofforge.syntax import free_variables, is_delta0

    pr = provability_formula(Q, 4, var="x")
    assert free_variables(pr) == frozenset({"x"})
    assert is_delta0(pr)
