"""Codes, the arithmetized substitution/diagonal operators, and eval_delta0."""

import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import proofforge
from proofforge import goedel, syntax
from proofforge.calculus import EvalBudget, EvalBudgetExceeded, Proof, ProofLine, check_stored_proof, eval_term_in
from proofforge.corpus import diagonal_shapes, random_delta0_sentence
from proofforge.derivations import equivalence_proof
from proofforge.goedel import (
    BASE,
    ID_TOKENS,
    CodingError,
    binary_numeral,
    code_to_tokens,
    con_bounded,
    decode_formula,
    decode_proof,
    decode_term,
    diagonalize,
    encode_formula,
    encode_proof,
    encode_term,
    eval_delta0,
    goedel_sentence_bounded,
    make_numeral,
    proof_candidates,
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
    Succ,
    Times,
    Var,
    ZERO,
    formula_size,
    iff,
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
    primed = Eq(Var("x''"), Var("y'"))
    assert code_to_tokens(encode_formula(primed)) == ["=", "x", "'", "'", "y", "'"]
    assert decode_formula(encode_formula(primed)) == primed
    assert decode_term(encode_term(Var("x''"))) == Var("x''")
    line = ["=", "0", "0"]
    for bad, decode in (
        (["=", "x", "S", "'", "0"], decode_formula),  # a prime after a non-variable
        (["=", "0", "0", "'"], decode_formula),  # a trailing prime
        (["'", "=", "x", "0"], decode_formula),  # a leading prime
        (["S", "0"], decode_formula),  # a term code
        (line, decode_term),  # a formula code
        (line + [";"] + line, decode_formula),  # a separator inside a formula
        (["0", ";"] + line, decode_term),  # a separator inside a term
        (line + [";", ";"] + line, decode_proof),  # an empty proof line
        ([";"] + line, decode_proof),  # a leading separator
        (line + [";"], decode_proof),  # a trailing separator
        (line + line, decode_proof),  # two lines without a separator
    ):
        with pytest.raises(CodingError):
            decode(tokens_to_code(bad))
    for tree, encode in (
        (Eq(DefFn("dbl", (ZERO, ZERO)), ZERO), encode_formula),  # a wrong arity
        (Eq(DefFn("x", ()), ZERO), encode_formula),  # a variable as a symbol
        (Eq(Var("0"), ZERO), encode_formula),  # a name outside the variable pool
        (Not(Var("x")), encode_formula),  # a term in a formula slot
        (Eq(ZERO, ZERO), encode_term),  # a formula in a term slot
    ):
        with pytest.raises(CodingError):
            encode(tree)


def test_proof_codes_round_trip():
    from proofforge.calculus import ComputeJust, Proof, ProofLine

    p = Proof(
        (
            ProofLine(parse_formula("0 = 0"), ComputeJust()),
            ProofLine(parse_formula("S(0) = S(0)"), ComputeJust()),
        )
    )
    assert decode_proof(encode_proof(p)).lines[1].formula == parse_formula("S(0) = S(0)")


_DEEP_CODES = """
import sys
from proofforge.goedel import decode_formula, decode_term, encode_formula, encode_term
from proofforge.syntax import ZERO, DefFn, Eq, Not

# a recursive encoder or decoder would fail far below these depths; codes
# are compared, since dataclass equality recurses too
sys.setrecursionlimit(1000)
f = Eq(ZERO, ZERO)
t = ZERO
for _ in range(3000):
    f = Not(f)
    t = DefFn("dbl", (t,))
assert encode_formula(decode_formula(encode_formula(f))) == encode_formula(f)
assert encode_term(decode_term(encode_term(t))) == encode_term(t)
print("ok")
"""


def test_deep_trees_encode_and_decode_without_recursion():
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_CODES], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


def _digit_loop(code: int) -> list[int] | None:
    """Base-44 digits one division at a time: the reference for long codes."""
    out = []
    while code > 0:
        code, d = divmod(code, BASE)
        if d == 0:
            return None
        out.append(d)
    return out[::-1] or None


def test_long_codes_convert_like_the_digit_loop():
    rng = random.Random(40180)
    for _ in range(600):
        n = rng.choice((1, 5, 31, 32, 33, 64, 65, 200, 1000, 2500))
        digits = [rng.randint(1, 43) for _ in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            if n >= 64 and rng.random() < 0.3:
                # one or two whole 32-digit blocks of zeros, counted from the
                # last digit, as long codes are split
                end = n - 32 * rng.randrange(n // 32 - 1)
                start = end - rng.choice((32, 64))
            else:
                # a zero digit or a run of zeros, anywhere
                start = rng.randrange(n)
                end = min(n, start + rng.choice((1, rng.randint(2, 130))))
            digits[start:end] = [0] * (end - start)
        code = 0
        for d in digits:
            code = code * BASE + d
        expected = _digit_loop(code)
        if expected is None:
            with pytest.raises(CodingError):
                code_to_tokens(code)
        else:
            assert code_to_tokens(code) == [ID_TOKENS[d] for d in expected]
        if 0 not in digits:
            assert expected == digits
            assert tokens_to_code([ID_TOKENS[d] for d in digits]) == code
    assert tokens_to_code([]) == 0


def test_a_40000_token_code_round_trips_quickly():
    # converting one digit at a time took about 1.8 s for this round trip on
    # a 2-core x86-64 host, since every step divides or multiplies a number
    # of the code's size; by halves it takes about 0.4 s
    f = Eq(ZERO, ZERO)
    for _ in range(40_000 - 3):
        f = Not(f)
    start = time.perf_counter()
    code = encode_formula(f)
    back = decode_formula(code)
    elapsed = time.perf_counter() - start
    assert formula_size(back) == 40_000 and encode_formula(back) == code
    assert elapsed < 1.5, elapsed


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


def test_a_sentence_is_walked_for_free_variables_only_where_its_evaluation_skips(monkeypatch):
    # the evaluation itself meets every variable it does not skip, so a
    # closed sentence starts a walk only at a consequent after a false
    # antecedent, at an empty sweep, or in the support prune of an exists
    walks = []
    walk = syntax._free_names

    def record(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(syntax, "_free_names", record)
    monkeypatch.setattr(goedel, "_free_names", record)
    rng = random.Random(3)
    unwalked = 0
    for _ in range(10_000):
        f = random_delta0_sentence(rng, depth=3, bound_cap=3)
        before = len(walks)
        eval_delta0(Q, f)
        text = print_formula(f)
        if "->" not in text and "exists<=" not in text:
            assert len(walks) == before, text
            unwalked += 1
    # criterion 3's sentences: one walk per call would make 10,000
    assert (len(walks), unwalked) == (3_694, 5_351)


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


def _without_support(theory):
    """The same theory with the prft sweep left unpruned."""
    exts = dict(theory.def_extensions)
    exts["prft"] = replace(exts["prft"], support=None)
    return replace(theory, def_extensions=exts)


# work of the con_bounded sweeps.  `used` visits only the codes that can pass
# prft's filter; `brute` sweeps every code up to bnd(m) (the counts before
# the sweep was pruned); `before` is the brute count when every visit of a
# closed node cost one unit, an upper bound that memo hits may only lower.
# `was` holds (used, brute) from before nodes were interned, when a repeated
# closed subterm built apart was charged again: upper bounds too.  The ids
# name the rows by the brute counts they were first pinned under.
CON_WORK = [
    (1, "binary", 126, 609, (132, 615), 706),
    (2, "binary", 133, 23_234, (139, 23_240), 27_115),
    (3, "binary", 128, 1_094_230, (140, 1_094_242), 1_264_613),
    (1, "unary", 126, 609, (128, 611), 702),
    (2, "unary", 130, 23_231, (130, 23_231), 27_106),
    (3, "unary", 132, 1_094_234, (132, 1_094_234), 1_264_605),
]


@pytest.mark.parametrize(
    "m, mode, used, brute, was, before", CON_WORK, ids=[f"{m}-{mode}-{was[1]}-{before}" for m, mode, _, _, was, before in CON_WORK]
)
def test_con_bounded_eval_work_is_pinned(m, mode, used, brute, was, before):
    sentence = con_bounded(Q, m, numeral_mode=mode)
    budget = EvalBudget(10**10)
    assert eval_delta0(Q, sentence, budget=budget) is True
    assert budget.used == used <= brute <= before
    assert used <= was[0] and brute <= was[1]
    swept = EvalBudget(10**10)
    assert eval_delta0(_without_support(Q), sentence, budget=swept) is True
    assert swept.used == brute


# --- the pruned provability sweep ----------------------------------------------


@pytest.mark.parametrize("target", ["!(0 = 0)", "0 = 0", "S(0) = 0"])
def test_pruned_sweep_matches_a_naive_loop(target):
    c = encode_formula(parse_formula(target))
    top = BASE**3 - 1
    # the naive loop: prft at every code up to bnd(3), through eval_term_in
    naive = DefFn("prft", (Var("p"), Var("c")))
    values = [eval_term_in(Q, naive, EvalBudget(10**9), env={"p": p, "c": c}) for p in range(top + 1)]
    prft = DefFn("prft", (Var("p"), binary_numeral(c)))
    hits = [p for p, v in enumerate(values) if v]
    assert set(hits) <= set(proof_candidates(c, top))
    for bound in (BASE - 1, BASE**2 - 1, top, c - 1, c, c + 1, 50_000):
        sentence = BoundedExists("p", binary_numeral(bound), Eq(prft, Succ(ZERO)))
        want = any(v == 1 for v in values[: bound + 1])
        assert eval_delta0(Q, sentence) is want, (target, bound)
    assert eval_delta0(Q, provability_formula(Q, 3), env={"x": c}) is bool(hits)
    # 0 = 0 is its own one-line proof: provable within 3 tokens, not within 2
    assert hits == ([c] if target == "0 = 0" else [])


def test_proof_candidates_are_exactly_the_decodable_codes():
    c = encode_formula(parse_formula("0 = 0"))
    tail = code_to_tokens(c)
    candidates = list(proof_candidates(c, BASE ** (3 + 1 + len(tail)) - 1))
    assert candidates == sorted(candidates) and candidates[0] == c
    brute = [c]
    for k in (1, 2, 3):
        for digits in itertools.product(range(1, BASE), repeat=k):
            p = tokens_to_code([ID_TOKENS[d] for d in digits] + [";"] + tail)
            try:
                decode_proof(p)
            except CodingError:
                continue
            brute.append(p)
    assert candidates == brute
    assert len(candidates) == 1 + 17 * 17  # `a = b` over 0 and the 16 variables
    for bound in (brute[100] - 1, brute[100], brute[100] + 1):
        assert list(proof_candidates(c, bound)) == [p for p in brute if p <= bound]


def test_proof_candidates_include_primed_variables_and_longer_lines():
    c = encode_formula(parse_formula("0 = 0"))
    tail = (ProofLine(parse_formula("0 = 0")),)
    upto_four = list(proof_candidates(c, BASE**8 - 1))
    upto_five = set(proof_candidates(c, BASE**9 - 1))
    for text in ("x' = 0", "0 = y'", "!(x = x)", "dbl(x) = 0", "x + 0 = 0", "pair(0, x) = 0", "forall x (x = x)", "!!(0 = 0)"):
        code = encode_proof(Proof((ProofLine(parse_formula(text)),) + tail))
        assert code in upto_five, text
    for p in upto_four:
        decode_proof(p)
    # 4 tokens: `! a = b`, and `= a b` with one side a 2-token term: S t, a
    # primed variable or one of the 7 one-argument symbols applied to t
    assert len(upto_four) == 1 + 17 * 17 + 17 * 17 + 2 * 17 * (17 + 16 + 7 * 17)


def test_proof_candidates_reject_non_formula_targets():
    for bad in (0, tokens_to_code(["0"]), tokens_to_code(["=", "0", "0", ";", "=", "0", "0"])):
        assert list(proof_candidates(bad, BASE**8 - 1)) == []
    c = encode_formula(parse_formula("0 = 0"))
    assert list(proof_candidates(c, c - 1)) == []


def test_sweep_is_not_pruned_when_its_variable_occurs_in_the_equation():
    c = binary_numeral(encode_formula(parse_formula("0 = 0")))
    p = Var("p")
    for body in (
        Eq(DefFn("prft", (p, p)), Succ(ZERO)),
        Eq(DefFn("prft", (p, Plus(c, Times(p, ZERO)))), Succ(ZERO)),
        Eq(DefFn("prft", (p, c)), DefFn("le", (p, p))),
    ):
        sentence = BoundedExists("p", DefFn("bnd", (numeral(3),)), body)
        budget, swept = EvalBudget(10**9), EvalBudget(10**9)
        assert eval_delta0(Q, sentence, budget=budget) is eval_delta0(_without_support(Q), sentence, budget=swept)
        assert budget.used == swept.used


def test_sweep_for_a_zero_right_side_is_not_pruned():
    # with r = 0 the body holds wherever prft rejects, e.g. at p = 0; at the
    # bound c the only candidate is c, a proof, so a pruned sweep would say false
    c = encode_formula(parse_formula("0 = 0"))
    prft_is_zero = Eq(DefFn("prft", (Var("p"), binary_numeral(c))), ZERO)
    for bound in (DefFn("bnd", (numeral(7),)), binary_numeral(c)):
        sentence = BoundedExists("p", bound, prft_is_zero)
        budget, swept = EvalBudget(), EvalBudget()
        assert eval_delta0(Q, sentence, budget=budget) is True
        assert eval_delta0(_without_support(Q), sentence, budget=swept) is True
        assert budget.used == swept.used


# --- fixed points ---------------------------------------------------------------


def test_diagonalize_produces_a_checkable_fixed_point():
    psi = parse_formula("x = x")
    r = diagonalize(Q, psi)
    # the fixed point really is psi at its own code
    assert r.psi_at_code == substitute(psi, "x", binary_numeral(r.code))
    assert encode_formula(r.sentence) == r.code
    assert proof_of(Q, r.equivalence, r.biconditional).ok


def test_diagonal_shape_corpus_has_enough_variety():
    shapes = diagonal_shapes(Q)
    assert len(shapes) >= 20
    texts = {print_formula(s) for s in shapes}
    assert len(texts) == len(shapes)


def test_bounded_goedel_sentence_is_true_at_desk_scale():
    # m = 2: the sweep space is tiny, the sentence says "I have no proof
    # within 2 tokens", and indeed no 2-token proof of anything exists
    g = goedel_sentence_bounded(Q, 2)
    assert eval_delta0(Q, g.sentence, budget=EvalBudget(10**9)) is True


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

    pr = provability_formula(Q, 4)
    assert free_variables(pr) == frozenset({"x"})
    assert is_delta0(pr)


# --- walks past the default recursion limit ------------------------------------


def test_eval_delta0_through_a_deep_negation_chain():
    # 4,000 negations over a sweep, at the default recursion limit: each
    # negation charges one unit on top of what the sweep alone charges
    sweep = BoundedExists("y", numeral(2), Eq(Var("y"), numeral(2)))
    alone = EvalBudget()
    assert eval_delta0(Q, sweep, budget=alone) is True
    f = sweep
    for _ in range(4_000):
        f = Not(f)
    budget = EvalBudget()
    assert eval_delta0(Q, f, budget=budget) is True
    assert budget.used == 4_000 + alone.used


def test_equivalence_proof_through_a_deep_psi():
    psi = Eq(Var("x"), ZERO)
    for _ in range(1_200):
        psi = Not(psi)
    s, u = Plus(ZERO, ZERO), ZERO
    proof = equivalence_proof(Q, psi, "x", s, u)
    assert check_stored_proof(Q, proof).ok
    assert proof.conclusion == iff(substitute(psi, "x", s), substitute(psi, "x", u))
