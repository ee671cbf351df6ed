"""Clause sets, resolution checking, Tseitin, translations, and s_P measures."""

import hashlib
import random
import re
import time
from typing import Callable, Iterable

import pytest

from proofforge.calculus import TheorySpec, eval_term_in
from proofforge.cli import _psim_corpus
from proofforge.config import RunConfig
from proofforge.corpus import mutate_resolution_proof, random_clause_set, random_delta0_single_var
from proofforge.goedel import eval_delta0, standard_theory
from proofforge.propositional import (
    _CHUNK_BITS,
    FALSE,
    MAX_BRUTE_VARS,
    MAX_PROP_NESTING,
    TRUE,
    ClauseSet,
    Input,
    PAnd,
    PConst,
    PImp,
    PNot,
    POr,
    PropFormula,
    PVar,
    Resolve,
    ResolutionProof,
    SPMeasure,
    TooManyVariables,
    TranslationError,
    _fold,
    _sweep,
    big_and,
    brute_force_satisfiable,
    check_resolution,
    dp_refutation,
    eval_prop,
    falsifying_assignment,
    from_dimacs,
    is_tautology_bruteforce,
    min_refutation_steps,
    negation_clauses,
    p_simulation_check,
    parse_prop,
    parse_resolution_text,
    print_prop,
    print_resolution_text,
    print_truth_table_proof,
    prop_vars,
    resolution_system,
    table_to_resolution_translator,
    to_dimacs,
    translate_delta0,
    truth_table_system,
    tseitin,
)
from proofforge.syntax import (
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    ForAll,
    Formula,
    Implies,
    Not,
    Plus,
    Succ,
    Term,
    Times,
    Var,
    Zero,
    free_variables,
    is_delta0,
    parse_formula,
)

Q = standard_theory()

CONTRADICTION = ClauseSet((frozenset({1}), frozenset({-1})), 1)


def random_prop(rng: random.Random, depth: int, n_vars: int = 5):
    if depth == 0:
        return PVar(rng.randrange(n_vars))
    match rng.randrange(4):
        case 0:
            return PNot(random_prop(rng, depth - 1, n_vars))
        case 1:
            return PAnd(random_prop(rng, depth - 1, n_vars), random_prop(rng, depth - 1, n_vars))
        case 2:
            return POr(random_prop(rng, depth - 1, n_vars), random_prop(rng, depth - 1, n_vars))
        case _:
            return PImp(random_prop(rng, depth - 1, n_vars), random_prop(rng, depth - 1, n_vars))


# --- canonical pins -------------------------------------------------------------


def test_canonical_contradiction_refutes_in_three_steps():
    proof = ResolutionProof((Input(0), Input(1), Resolve(0, 1, 0)))
    r = check_resolution(CONTRADICTION, proof)
    assert r.ok, r.reason
    assert min_refutation_steps(CONTRADICTION, cap=5).value == 3


def test_two_pigeons_one_hole_hand_refutation():
    # pigeon i sits somewhere: {x0}, {x1}; no two share the hole: {!x0, !x1}
    cs = ClauseSet((frozenset({1}), frozenset({2}), frozenset({-1, -2})), 2)
    proof = ResolutionProof((Input(0), Input(1), Input(2), Resolve(0, 2, 0), Resolve(1, 3, 1)))
    r = check_resolution(cs, proof)
    assert r.ok, r.reason
    assert r.derived[-1] == frozenset()


def test_truth_table_sp_is_exactly_rows_times_width():
    tt = truth_table_system()
    alpha = parse_prop("x0 -> (x1 -> x0)")
    m = tt.s_p(alpha, cap=1_000)
    assert m.value == (2**2) * (2 + 1)
    assert tt.verify(print_truth_table_proof(alpha).encode(), alpha)


# --- the reason channel -----------------------------------------------------------


@pytest.mark.parametrize(
    "steps, part",
    [
        ((Input(7),), "input index"),
        ((Input(0), Input(1), Resolve(0, 1, 3)), "pivot"),
        ((Input(0), Input(1), Resolve(1, 0, 0)), "step 2: pivot variable 1 not positive in clause 1"),
        ((Input(0),), "final clause"),
        ((Input(0), Input(1), Resolve(0, 5, 0)), "out of range"),
    ],
    ids=["bad-input", "bad-pivot", "swapped-operands", "no-empty-clause", "future-step"],
)
def test_rejection_reasons_name_the_offense(steps, part):
    r = check_resolution(CONTRADICTION, ResolutionProof(tuple(steps)))
    assert not r.ok
    assert part in r.reason


# --- serialization ----------------------------------------------------------------


def test_dimacs_round_trip():
    rng = random.Random(8191)
    for _ in range(200):
        cs = random_clause_set(rng)
        again = from_dimacs(to_dimacs(cs))
        assert set(again.clauses) == set(cs.clauses)
        assert again.n_vars == cs.n_vars


def test_resolution_text_round_trip():
    rng = random.Random(8192)
    trips = 0
    for _ in range(200):
        cs = random_clause_set(rng)
        proof = dp_refutation(cs)
        if proof is None:
            continue
        trips += 1
        assert parse_resolution_text(print_resolution_text(proof)) == proof
    assert trips >= 40


def test_resolution_text_rejects_garbage_with_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_resolution_text("i 0\nq 1 2\n")


def test_dimacs_lines_end_at_newline_alone():
    # a form feed, NEL or line separator neither ends a comment nor a clause line
    plain = from_dimacs("p cnf 2 2\nc note -1 0\n1 0\n2 -1 0\n")
    assert from_dimacs("p cnf 2 2\r\nc note\x0c-1 0\n1 0\x85\n2\u2028-1 0\n") == plain


def test_resolution_text_lines_end_at_newline_alone():
    assert parse_resolution_text("i 1\x0c\ni 2\r\n") == parse_resolution_text("i 1\ni 2\n")
    with pytest.raises(ValueError, match="line 2: unrecognized step"):
        parse_resolution_text("i 1\x85\nq\n")
    with pytest.raises(ValueError, match="line 1: unrecognized step"):
        parse_resolution_text("i 1\u2029i 2\n")


# --- Tseitin ----------------------------------------------------------------------


def test_tseitin_preserves_satisfiability():
    rng = random.Random(8193)
    for _ in range(300):
        f = random_prop(rng, rng.randrange(1, 5))
        cs = tseitin(f).clause_set
        f_sat = falsifying_assignment(PNot(f)) is not None
        assert brute_force_satisfiable(cs) == f_sat, print_prop(f)


@pytest.mark.parametrize("op", [PNot, PAnd, PImp], ids=["not", "and", "implies"])
def test_tseitin_is_fast_on_deep_chains(op):
    f = PVar(0)
    for i in range(1, 4001):
        f = PNot(f) if op is PNot else op(f, PVar(i % 7))
    start = time.perf_counter()
    cs = tseitin(f).clause_set
    assert time.perf_counter() - start < 2.0
    assert len(cs.clauses) == (0 if op is PNot else 3 * 4000) + 1


def test_prop_vars_are_the_printed_variables():
    rng = random.Random(8203)
    formulas = [random_prop(rng, rng.randrange(0, 5)) for _ in range(200)]
    formulas += [parse_prop("T"), parse_prop("x3 & !F"), parse_prop("(x0 -> T) | !(x7 & x0)")]
    formulas += [translate_delta0(random_delta0_single_var(rng), "x", n) for n in (1, 3) for _ in range(10)]
    for f in formulas:
        assert prop_vars(f) == {int(i) for i in re.findall(r"x(\d+)", print_prop(f))}


def test_tseitin_constant_folding():
    from proofforge.propositional import FALSE, TRUE

    assert tseitin(TRUE).clause_set.clauses == ()
    false_cs = tseitin(FALSE).clause_set
    assert frozenset() in false_cs.clauses
    f = parse_prop("x0 & T")
    assert prop_vars(f) == {0}
    assert brute_force_satisfiable(tseitin(f).clause_set)


def test_negation_clauses_unsat_iff_tautology():
    rng = random.Random(8194)
    for _ in range(150):
        f = random_prop(rng, rng.randrange(1, 4), n_vars=4)
        taut = is_tautology_bruteforce(f)
        assert (not brute_force_satisfiable(negation_clauses(f).clause_set)) == taut


def test_dp_refutation_complete_on_small_unsat_sets():
    rng = random.Random(8195)
    for _ in range(250):
        cs = random_clause_set(rng)
        proof = dp_refutation(cs)
        if brute_force_satisfiable(cs):
            assert proof is None
        else:
            assert proof is not None
            assert check_resolution(cs, proof).ok


# --- fuzzed invalid proofs ---------------------------------------------------------


def replay(cs, proof):
    """Independent read-through of the step semantics, used as the oracle."""
    derived = []
    for step in proof.steps:
        match step:
            case Input(k):
                if not 0 <= k < len(cs.clauses):
                    return None
                derived.append(cs.clauses[k])
            case Resolve(i, j, pivot):
                if not (0 <= i < len(derived) and 0 <= j < len(derived)):
                    return None
                pos, neg = pivot + 1, -(pivot + 1)
                if pos not in derived[i] or neg not in derived[j]:
                    return None
                derived.append((derived[i] - {pos}) | (derived[j] - {neg}))
    return derived


def test_fuzzed_mutations_never_slip_past_the_checker():
    rng = random.Random(8196)
    base_cs = []
    for _ in range(40):
        cs = random_clause_set(rng)
        proof = dp_refutation(cs)
        if proof is not None:
            base_cs.append((cs, proof))
    assert len(base_cs) >= 8
    false_accepts = invalid = 0
    while invalid < 150:
        cs, proof = rng.choice(base_cs)
        mutant = mutate_resolution_proof(rng, proof)
        mirror = replay(cs, mutant)
        bad = mirror is None or not mirror or mirror[-1] != frozenset()
        if not bad:
            continue
        invalid += 1
        if check_resolution(cs, mutant).ok:
            false_accepts += 1
    assert false_accepts == 0


# --- translations -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, n, taut",
    [
        ("x = x", 1, True),
        ("x = x", 4, True),
        ("x + 0 = x", 3, True),
        ("x = 0", 1, False),
        ("x = 0", 3, False),
        ("exists<= y x (y = x)", 2, True),
        ("forall<= y x (y = x)", 2, False),
    ],
    ids=lambda v: str(v).replace(" ", ""),
)
def test_translation_tautology_matches_arithmetic_truth(text, n, taut):
    phi = parse_formula(text)
    alpha = translate_delta0(phi, x="x" if "x" in text else None, n=n)
    assert is_tautology_bruteforce(alpha) is taut
    # cross-check against direct evaluation at every admissible value
    from proofforge.syntax import free_variables, numeral, substitute

    if free_variables(phi):
        truths = [eval_delta0(Q, substitute(phi, "x", numeral(i))) for i in range(n + 1)]
        assert all(truths) is taut


def test_translation_agreement_bulk():
    rng = random.Random(8197)
    from proofforge.syntax import numeral, substitute

    for _ in range(60):
        phi = random_delta0_single_var(rng)
        for n in (1, 2, 3):
            alpha = translate_delta0(phi, x="x", n=n)
            want = all(eval_delta0(Q, substitute(phi, "x", numeral(i))) for i in range(n + 1))
            assert is_tautology_bruteforce(alpha) is want


# --- the translation against a reference copy ------------------------------------
# The translation and its folding as they were before folding moved into the
# node constructors: every connective folded its whole subtree again, and
# each call built its own guard.  Kept verbatim but for the names.


def reference_fold(f: PropFormula) -> PropFormula:
    match f:
        case PVar(_) | PConst(_):
            return f
        case PNot(b):
            fb = reference_fold(b)
            if isinstance(fb, PConst):
                return PConst(not fb.value)
            return PNot(fb)
        case PAnd(a, b):
            fa, fb = reference_fold(a), reference_fold(b)
            if isinstance(fa, PConst):
                return fb if fa.value else FALSE
            if isinstance(fb, PConst):
                return fa if fb.value else FALSE
            return PAnd(fa, fb)
        case POr(a, b):
            fa, fb = reference_fold(a), reference_fold(b)
            if isinstance(fa, PConst):
                return TRUE if fa.value else fb
            if isinstance(fb, PConst):
                return TRUE if fb.value else fa
            return POr(fa, fb)
        case PImp(a, b):
            fa, fb = reference_fold(a), reference_fold(b)
            if isinstance(fa, PConst):
                return fb if fa.value else TRUE
            if isinstance(fb, PConst):
                return TRUE if fb.value else PNot(fa)
            return PImp(fa, fb)
    raise TypeError(f"not a propositional formula: {f!r}")


def reference_big_and(parts: Iterable[PropFormula]) -> PropFormula:
    acc: PropFormula | None = None
    for p in parts:
        acc = p if acc is None else PAnd(acc, p)
    return acc if acc is not None else TRUE


def reference_big_or(parts: Iterable[PropFormula]) -> PropFormula:
    acc: PropFormula | None = None
    for p in parts:
        acc = p if acc is None else POr(acc, p)
    return acc if acc is not None else FALSE


def reference_term_value_cases(t: Term, x: str, n: int, env: dict[str, int]) -> list[tuple[int, PropFormula]]:
    """Possible values of t with their selector conditions (TRUE if forced)."""
    match t:
        case Zero():
            return [(0, TRUE)]
        case Var(name):
            if name == x:
                return [(i, PVar(i)) for i in range(n + 1)]
            if name in env:
                return [(env[name], TRUE)]
            raise TranslationError(f"unbound variable {name!r} in translation")
        case Succ(arg):
            return [(v + 1, c) for v, c in reference_term_value_cases(arg, x, n, env)]
        case Plus(left, right):
            return reference_combine(reference_term_value_cases(left, x, n, env), reference_term_value_cases(right, x, n, env), lambda a, b: a + b)
        case Times(left, right):
            return reference_combine(reference_term_value_cases(left, x, n, env), reference_term_value_cases(right, x, n, env), lambda a, b: a * b)
        case DefFn(symbol, _):
            raise TranslationError(f"definitional symbol {symbol!r} has no propositional translation")
    raise TypeError(f"not a term: {t!r}")


def reference_combine(
    left: list[tuple[int, PropFormula]],
    right: list[tuple[int, PropFormula]],
    op: Callable[[int, int], int],
) -> list[tuple[int, PropFormula]]:
    byval: dict[int, PropFormula] = {}
    for v1, c1 in left:
        for v2, c2 in right:
            v = op(v1, v2)
            cond = c1 if isinstance(c2, PConst) and c2.value else (c2 if isinstance(c1, PConst) and c1.value else PAnd(c1, c2))
            prev = byval.get(v)
            byval[v] = cond if prev is None else POr(prev, cond)
    return sorted(byval.items())


_BASE = TheorySpec("base")


def reference_translate_delta0(A: Formula, x: str | None = None, n: int = 1) -> PropFormula:
    """The selector-variable translation at bound n.

    x is represented by selector variables x_0..x_n (indices 0..n); the
    result is (exactly-one guard) -> expansion, a tautology iff A holds at
    every x in {0..n}.  Bounds inside A must be closed terms, the variable x
    itself, or a previously bound variable.
    """
    if not is_delta0(A):
        raise TranslationError("formula is not Delta0")
    fv = free_variables(A)
    if x is None:
        if len(fv) != 1:
            raise TranslationError(f"need exactly one free variable, got {sorted(fv)}")
        x = next(iter(fv))
    elif fv != {x}:
        raise TranslationError(f"free variables {sorted(fv)} are not exactly {{{x!r}}}")

    def tr(g: Formula, env: dict[str, int]) -> PropFormula:
        match g:
            case Eq(left, right):
                lcases = reference_term_value_cases(left, x, n, env)
                rcases = reference_term_value_cases(right, x, n, env)
                rmap = dict(rcases)
                parts: list[PropFormula] = []
                for v, c1 in lcases:
                    c2 = rmap.get(v)
                    if c2 is None:
                        continue
                    parts.append(reference_fold(PAnd(c1, c2)))
                return reference_fold(reference_big_or(parts))
            case Not(body):
                return reference_fold(PNot(tr(body, env)))
            case Implies(a, b):
                return reference_fold(PImp(tr(a, env), tr(b, env)))
            case BoundedForAll(v, bound, body):
                return reference_fold(reference_big_and(_quantifier_cases(v, bound, body, env, tr, exists=False)))
            case BoundedExists(v, bound, body):
                return reference_fold(reference_big_or(_quantifier_cases(v, bound, body, env, tr, exists=True)))
            case ForAll(_, _):
                raise TranslationError("unbounded quantifier in a Delta0 formula")
        raise TypeError(f"not a formula: {g!r}")

    def _quantifier_cases(v, bound, body, env, tr, exists: bool) -> list[PropFormula]:
        if bound == Var(x):
            # value i admissible when i <= x: guarded by the selectors x_i..x_n
            out = []
            for i in range(n + 1):
                ge = reference_big_or([PVar(k) for k in range(i, n + 1)])
                sub = tr(body, {**env, v: i})
                out.append(PAnd(ge, sub) if exists else PImp(ge, sub))
            return out
        try:
            b = eval_term_in(_BASE, bound, env=env)
        except (KeyError, ValueError) as e:
            raise TranslationError(f"untranslatable quantifier bound: {e.args[0]}") from None
        return [tr(body, {**env, v: i}) for i in range(b + 1)]

    guard_any = reference_big_or([PVar(i) for i in range(n + 1)])
    guard_one = reference_big_and(
        [PNot(PAnd(PVar(i), PVar(j))) for i in range(n + 1) for j in range(i + 1, n + 1)]
    )
    return PImp(PAnd(guard_any, guard_one), tr(A, {}))


def test_translation_matches_the_reference_copy():
    rng = random.Random(8330)
    formulas = [random_delta0_single_var(rng) for _ in range(1000)]
    # criterion 8's formulas
    crit = random.Random(RunConfig().seed + 3)
    formulas += [random_delta0_single_var(crit) for _ in range(200)]
    for A in formulas:
        for n in range(1, 7):
            got, want = translate_delta0(A, "x", n), reference_translate_delta0(A, "x", n)
            assert got == want
            assert print_prop(got) == print_prop(want)
            assert negation_clauses(got).clause_set == negation_clauses(want).clause_set


def test_translation_refuses_what_the_reference_copy_refuses():
    texts = ["x = y", "forall z (z = x)", "0 = 0 -> forall z (z = z)", "forall<= y dbl(S(0)) (y = x)"]
    texts += ["forall<= y S(x) (y = x)", "x = dbl(0)", "exists<= y S(S(0)) (dbl(y) = x)"]
    for text in texts:
        for x in ("x", None):
            with pytest.raises(TranslationError) as got:
                translate_delta0(parse_formula(text), x=x, n=2)
            with pytest.raises(TranslationError) as want:
                reference_translate_delta0(parse_formula(text), x=x, n=2)
            assert str(got.value) == str(want.value)


def random_prop_with_constants(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice([TRUE, FALSE, PVar(0), PVar(1), PVar(2)])
    kind = rng.choice([PNot, PAnd, POr, PImp])
    if kind is PNot:
        return PNot(random_prop_with_constants(rng, depth - 1))
    return kind(random_prop_with_constants(rng, depth - 1), random_prop_with_constants(rng, depth - 1))


def test_fold_matches_the_reference_copy():
    rng = random.Random(8331)
    for _ in range(2000):
        f = random_prop_with_constants(rng, rng.randrange(0, 6))
        assert _fold(f) == reference_fold(f)
        assert print_prop(_fold(f)) == print_prop(reference_fold(f))
        assert tseitin(f).clause_set == tseitin(reference_fold(f)).clause_set


def reference_print_prop(f: PropFormula) -> str:
    """print_prop written recursively, each level copying its children's text."""
    match f:
        case PVar(i):
            return f"x{i}"
        case PConst(v):
            return "T" if v else "F"
        case PNot(b):
            return f"!({reference_print_prop(b)})"
        case PAnd(a, b):
            return f"({reference_print_prop(a)} & {reference_print_prop(b)})"
        case POr(a, b):
            return f"({reference_print_prop(a)} | {reference_print_prop(b)})"
        case PImp(a, b):
            return f"({reference_print_prop(a)} -> {reference_print_prop(b)})"
    raise TypeError(f"not a propositional formula: {f!r}")


def test_print_prop_matches_the_reference_copy():
    rng = random.Random(8332)
    formulas = [parse_prop(reference_print_prop(random_prop_with_constants(rng, rng.randrange(0, 7)))) for _ in range(500)]
    formulas += [parse_prop(text) for text in ("x0 -> x1 -> x2", "!!x0 & x1 & x2 | T", "((x3))", "!(x0 -> F)")]
    formulas += [translate_delta0(random_delta0_single_var(rng), "x", n) for n in range(1, 7) for _ in range(40)]
    formulas.append(translate_delta0(parse_formula("x = x"), "x", 40))
    for f in formulas:
        assert print_prop(f) == reference_print_prop(f)


def test_print_prop_is_linear_in_a_deep_chain():
    # the guard of the n = 400 translation is a left-nested chain of 80,200
    # conjuncts: quadratic to print if each level copied its children's text
    f = translate_delta0(parse_formula("x = x"), "x", 400)
    start = time.perf_counter()
    text = print_prop(f)
    assert time.perf_counter() - start < 2.0
    # the text the recursive print gave
    assert len(text) == 1_650_693
    assert hashlib.sha256(text.encode()).hexdigest() == "c47c72fb98313a4f31663ab9e4cc814ed4bf5b692dec06b70b6bf37435622ec4"


@pytest.mark.parametrize(
    "text",
    ["x = y", "forall z (z = x)", "0 = 0 -> forall z (z = z)", "forall<= y dbl(S(0)) (y = x)", "forall<= y S(x) (y = x)"],
    ids=["two-free", "unbounded", "unbounded-subformula", "definitional-bound", "bound-mentions-x"],
)
def test_translation_rejects_out_of_scope_shapes(text):
    with pytest.raises(TranslationError):
        translate_delta0(parse_formula(text), x="x", n=2)


def test_brute_force_refuses_wide_formulas():
    from proofforge.propositional import big_or

    wide = big_or(PVar(i) for i in range(30))
    with pytest.raises(TooManyVariables):
        is_tautology_bruteforce(wide)
    with pytest.raises(TooManyVariables):
        falsifying_assignment(PVar(MAX_BRUTE_VARS))
    with pytest.raises(TooManyVariables):
        brute_force_satisfiable(ClauseSet((frozenset({MAX_BRUTE_VARS + 1}),), MAX_BRUTE_VARS + 1))


# --- the truth-table sweep ----------------------------------------------------------


def _spread(f, vs):
    """f with variable i renamed to vs[i]."""
    match f:
        case PVar(i):
            return PVar(vs[i])
        case PNot(b):
            return PNot(_spread(b, vs))
        case PAnd(a, b) | POr(a, b) | PImp(a, b):
            return type(f)(_spread(a, vs), _spread(b, vs))
    return f


def _rows_over(vs, n):
    """The rows of an n-variable table that set no variable outside vs
    (sorted), in increasing order, with their assignments.  Clearing the
    other bits of a row keeps the value of a formula over vs and never
    increases the row, so such a formula's first false row is among them."""
    for k in range(1 << len(vs)):
        row = sum(1 << v for j, v in enumerate(vs) if (k >> j) & 1)
        yield row, {i: bool((row >> i) & 1) for i in range(n)}


def _first_false_row(f, n):
    return next((row for row, a in _rows_over(sorted(prop_vars(f)), n) if not eval_prop(f, a)), None)


@pytest.mark.parametrize("n", [0, 1, 17, 18, 19, 24])
def test_falsifying_assignment_matches_a_row_scan(n):
    rng = random.Random(8300 + n)
    if n == 0:
        formulas = [PConst(True), PConst(False), PNot(PConst(False)), PAnd(PConst(True), PConst(False))]
    else:
        vs = sorted({0, 1, 2, 16, 17, n - 1} & set(range(n)))
        top = PVar(n - 1)
        formulas = [POr(_spread(random_prop(rng, rng.randrange(1, 5), len(vs)), vs), PAnd(top, PNot(top))) for _ in range(40)]
    late = 0
    for f in formulas:
        row = _first_false_row(f, n)
        want = None if row is None else {i: bool((row >> i) & 1) for i in range(n)}
        assert falsifying_assignment(f) == want, print_prop(f)
        late += row is not None and row >= 1 << _CHUNK_BITS
    if n > _CHUNK_BITS:
        assert late > 0  # some first falsifying rows lie past the first chunk
    if n:
        # false only in the last row, all n variables true
        last = PNot(big_and(PVar(i) for i in range(n)))
        assert falsifying_assignment(last) == {i: True for i in range(n)}
        assert is_tautology_bruteforce(POr(PVar(n - 1), PNot(PVar(n - 1))))


def reference_sweep(n):
    """_sweep with each low column in closed form: the block of 2**i zeros
    and 2**i ones times the sum of 2**(k * 2**(i + 1)) over the chunk's
    periods."""
    low = min(n, _CHUNK_BITS)
    width = 1 << low
    full = (1 << width) - 1
    low_cols = [(((1 << (1 << i)) - 1) << (1 << i)) * (full // ((1 << (2 << i)) - 1)) for i in range(low)]
    for first in range(0, 1 << n, width):
        yield first, full, low_cols + [full if (first >> i) & 1 else 0 for i in range(low, n)]


def test_sweep_columns_match_the_closed_form():
    for n in range(MAX_BRUTE_VARS + 1):
        assert list(_sweep(n)) == list(reference_sweep(n)), n


def test_brute_force_builds_a_full_chunk_quickly():
    # one chunk of 2**18 rows: doubling builds its columns in about 0.4 ms,
    # the closed form in about 93 ms (Python 3.11, one Xeon core)
    f = POr(PVar(_CHUNK_BITS - 1), PNot(PVar(_CHUNK_BITS - 1)))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        assert is_tautology_bruteforce(f)
        best = min(best, time.perf_counter() - start)
    assert best < 0.02


@pytest.mark.parametrize("n", [19, 20, 21])
def test_brute_force_sat_matches_a_row_scan(n):
    rng = random.Random(8310 + n)
    vs = [0, 1, 2, 16, 17, 18, n - 1]
    verdicts = set()
    for _ in range(20):
        clauses = tuple(
            frozenset(rng.choice((1, -1)) * (v + 1) for v in rng.sample(vs, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 30))
        )
        cs = ClauseSet(clauses, n)
        want = any(all(any(a[abs(l) - 1] == (l > 0) for l in c) for c in clauses) for _, a in _rows_over(vs, n))
        assert brute_force_satisfiable(cs) is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_printed_truth_table_matches_eval_prop():
    rng = random.Random(8320)
    for _ in range(50):
        f = random_prop(rng, rng.randrange(0, 4))
        n = max(prop_vars(f)) + 1
        rows = print_truth_table_proof(f).splitlines()
        assert len(rows) == 1 << n
        for row, line in enumerate(rows):
            a = {i: bool((row >> i) & 1) for i in range(n)}
            assert line == "".join("1" if a[i] else "0" for i in range(n)) + f" {int(eval_prop(f, a))}"


_TAUT = parse_prop("x0 -> (x1 -> x0)")
_TABLE = print_truth_table_proof(_TAUT)
_NON_TAUT = parse_prop("x0 -> x1")


@pytest.mark.parametrize(
    "alpha, proof, accepted",
    [
        (_TAUT, _TABLE.encode(), True),
        (_TAUT, _TABLE.rsplit("\n", 2)[0].encode(), False),
        (_TAUT, _TABLE.replace(" ", " \t  ").encode(), True),
        (_TAUT, ("\n  \n" + _TABLE.replace("\n", "\n\n")).encode(), True),
        (_TAUT, _TABLE.replace("11 1", "11 0").encode(), False),
        (_TAUT, _TABLE.replace("10 1", "01 1", 1).encode(), False),
        (_NON_TAUT, print_truth_table_proof(_NON_TAUT).encode(), False),
        (_TAUT, _TABLE.encode() + b"\xff", False),
        (_TAUT, _TABLE.replace("\n", "\r\n").encode(), True),
        (_TAUT, _TABLE.replace("\n", "\x0c").encode(), False),
    ],
    ids=[
        "valid",
        "truncated",
        "re-spaced",
        "blank-padded",
        "flipped-value",
        "wrong-row",
        "non-tautology",
        "invalid-utf-8",
        "crlf",
        "form-feed-is-no-line-end",
    ],
)
def test_truth_table_verify_verdicts(alpha, proof, accepted):
    assert truth_table_system().verify(proof, alpha) is accepted


# --- proof systems and simulations ----------------------------------------------------


def test_decided_resolution_measure_matches_the_reference_search():
    rng = random.Random(8198)
    decided = 0
    for _ in range(150):
        f = random_prop(rng, rng.randrange(1, 4), n_vars=2)
        if not is_tautology_bruteforce(f):
            continue
        m = resolution_system().s_p(f, cap=13)
        if m.value is not None:
            decided += 1
            value, _, _, _ = reference_min_refutation_steps(negation_clauses(f).clause_set, 13)
            assert m.value == value, print_prop(f)
    assert decided >= 5


def test_table_to_resolution_simulation():
    corpus = []
    for text in ("x0 -> x0", "x0 | !x0", "x0 -> (x1 -> x0)", "((x0 -> x1) -> x0) -> x0"):
        alpha = parse_prop(text)
        corpus.append((alpha, print_truth_table_proof(alpha).encode()))
    report = p_simulation_check(resolution_system(), truth_table_system(), table_to_resolution_translator, corpus)
    assert report.all_ok
    assert all(i.original_ok and i.translated_ok for i in report.items)


def test_broken_translator_is_reported_not_masked():
    alpha = parse_prop("x0 -> x0")
    corpus = [(alpha, print_truth_table_proof(alpha).encode())]
    report = p_simulation_check(resolution_system(), truth_table_system(), lambda b, a: b"i 0\n", corpus)
    assert not report.all_ok


# --- the s_p search and Davis-Putnam against independent references -----------------


def reference_min_refutation_steps(cs, cap, node_cap=250_000):
    """The original node-per-child search, kept verbatim as the oracle.

    Returns (value, exceeds_cap, nodes, node_capped); past the node cap it
    keeps counting the children it still visits, so its node count means
    something only when the cap was not hit.
    """
    nodes = [0]
    capped = [False]

    def dfs(derived, depth_left):
        nodes[0] += 1
        if nodes[0] > node_cap:
            capped[0] = True
            return False
        if derived and derived[-1] == frozenset():
            return True
        if depth_left == 0:
            return False
        have = set(derived)
        for k, c in enumerate(cs.clauses):
            if c not in have:
                if dfs(derived + [c], depth_left - 1):
                    return True
        for i, ci in enumerate(derived):
            for j, cj in enumerate(derived):
                for l in ci:
                    if l > 0 and -l in cj:
                        r = (ci - {l}) | (cj - {-l})
                        if r not in have:
                            if dfs(derived + [r], depth_left - 1):
                                return True
        return False

    for depth in range(1, cap + 1):
        if dfs([], depth):
            return depth, False, nodes[0], False
        if capped[0]:
            return None, True, nodes[0], True
    return None, True, nodes[0], False


# The six fixed tautologies of the propositional benchmark workload with
# their cap-13 measures: five end at the default node cap of 250,000.
SP_TAUTOLOGY_MEASURES = [
    ("x0 -> (x1 -> x0)", None, 250_001, True),
    ("((x0 -> x1) -> x0) -> x0", None, 250_001, True),
    ("(x0 & x1) -> x0", 7, 242_598, False),
    ("(x0 & (x0 -> x1)) -> x1", None, 250_001, True),
    ("(x0 -> x1) -> (!x1 -> !x0)", None, 250_001, True),
    ("(x0 | x1) -> (x1 | x0)", None, 250_001, True),
]

@pytest.mark.parametrize("text, value, nodes, node_capped", SP_TAUTOLOGY_MEASURES, ids=lambda v: str(v))
def test_workload_tautology_measures_are_pinned(text, value, nodes, node_capped):
    m = resolution_system().s_p(parse_prop(text), 13)
    assert m == SPMeasure(value, value is None, 13, nodes, node_capped)


def test_min_refutation_search_matches_the_reference_search():
    rng = random.Random(8199)
    formulas = [random_prop(rng, rng.randrange(1, 4), n_vars=2) for _ in range(110)]
    formulas += [parse_prop(text) for text, *_ in SP_TAUTOLOGY_MEASURES]
    formulas += _psim_corpus(3)  # what `forge prop psim` measures at its defaults
    cases = capped = 0
    seen = {}  # equal clause sets give equal answers: search each once
    for f in formulas:
        cs = negation_clauses(f).clause_set
        for node_cap in (300, 3_000, 30_000):
            for cap in (6, 13):
                key = (cs, cap, node_cap)
                if key not in seen:
                    seen[key] = reference_min_refutation_steps(cs, cap, node_cap), min_refutation_steps(cs, cap, node_cap)
                (value, exceeds, nodes, hit), m = seen[key]
                where = (print_prop(f), node_cap, cap)
                assert (m.value, m.exceeds_cap, m.node_capped) == (value, exceeds, hit), where
                if hit:
                    capped += 1
                    assert m.nodes == node_cap + 1, where
                else:
                    assert m.nodes == nodes, where
                cases += 1
    assert cases == 6 * len(formulas) >= 720
    assert 0 < capped < cases


def test_min_refutation_search_reports_what_ended_it():
    assert min_refutation_steps(CONTRADICTION, cap=5) == SPMeasure(3, False, 5, 12)
    # satisfiable: only the step cap ends the search
    sat = ClauseSet((frozenset({1}),), 1)
    assert min_refutation_steps(sat, cap=4) == SPMeasure(None, True, 4, 8)
    # the node cap ends it at the first node past the cap
    assert min_refutation_steps(CONTRADICTION, cap=5, node_cap=4) == SPMeasure(None, True, 5, 5, True)
    # measures that do not search keep the defaults
    tt = truth_table_system().s_p(parse_prop("x0 | !x0"), 100)
    assert (tt.nodes, tt.node_capped) == (0, False)


def _assert_matches_the_reference(cs, cap, node_cap):
    value, exceeds, nodes, hit = reference_min_refutation_steps(cs, cap, node_cap)
    expected = SPMeasure(value, exceeds, cap, node_cap + 1 if hit else nodes, hit)
    assert min_refutation_steps(cs, cap, node_cap) == expected, (cs.clauses, cap, node_cap)


F = frozenset
# Repeated inputs and tautologies: a child per copy of an input, and sets of
# derived clauses reached in many orders.
REPEATS_AND_TAUTOLOGIES = [
    ClauseSet((F({1}), F({1}), F({-1, 2}), F({-2}), F({-1, 2})), 2),
    ClauseSet((F({1, -1}), F({1}), F({-1, 2}), F({-2})), 2),
    ClauseSet((F({1, 2}), F({2, -2}), F({-1, 2}), F({1, 2}), F({-2})), 2),
    ClauseSet((F({1, 2}), F({-1, 2}), F({1, 2}), F({1, -2}), F({-1, -2}), F({2, -2})), 2),
    ClauseSet((F({1, 2}), F({-1}), F({1, -2, 2}), F({-1})), 2),  # satisfiable
]


def test_min_refutation_search_counts_repeated_and_tautological_inputs():
    for cs in REPEATS_AND_TAUTOLOGIES:
        for cap in (2, 4, 6, 8):
            for node_cap in (10, 100, 250_000):
                _assert_matches_the_reference(cs, cap, node_cap)
    rng = random.Random(8201)
    for _ in range(60):
        base = random_clause_set(rng, max_vars=3, max_clauses=4)
        v = rng.randint(1, base.n_vars)
        clauses = [*base.clauses, rng.choice(base.clauses), F({v, -v})]
        rng.shuffle(clauses)
        _assert_matches_the_reference(ClauseSet(tuple(clauses), base.n_vars), 6, 20_000)


def test_min_refutation_search_node_cap_inside_the_last_depth():
    for cs in (CONTRADICTION, REPEATS_AND_TAUTOLOGIES[2], ClauseSet((F({1, 2}), F({-1, 2}), F({1, -2}), F({-1, -2})), 2)):
        value, _, total, _ = reference_min_refutation_steps(cs, 13)
        earlier = reference_min_refutation_steps(cs, value - 1)[2]  # every node of the shallower depths
        assert value >= 3 and earlier + 2 < total
        # the cap at the last depth's first node, inside it, at the node
        # before the refutation, at the refutation and past it
        for node_cap in (earlier, earlier + 1, (earlier + total) // 2, total - 1, total, total + 1):
            _assert_matches_the_reference(cs, 13, node_cap)
        assert min_refutation_steps(cs, 13, total - 1) == SPMeasure(None, True, 13, total, True)
        assert min_refutation_steps(cs, 13, total) == SPMeasure(value, False, 13, total)


def test_min_refutation_search_at_step_caps_one_and_three():
    rng = random.Random(8202)
    sets = [random_clause_set(rng, max_vars=3, max_clauses=6) for _ in range(80)]
    sets += REPEATS_AND_TAUTOLOGIES + [CONTRADICTION, ClauseSet((F(),), 0), ClauseSet((F({1}), F(), F({-1})), 1)]
    for cs in sets:
        for cap in (1, 3):
            for node_cap in (2, 4, 40, 250_000):
                _assert_matches_the_reference(cs, cap, node_cap)


def test_min_refutation_search_keeps_nothing_between_calls():
    from proofforge import propositional

    def held():
        """What the module holds that a call could fill: its containers and caches."""
        out = {}
        for name, v in vars(propositional).items():
            if isinstance(v, (dict, list, set)):
                out[name] = len(v)
            elif hasattr(v, "cache_info"):
                out[name] = v.cache_info().currsize
        return out

    cs = negation_clauses(parse_prop("(x0 & x1) -> x0")).clause_set
    before = held()
    first = min_refutation_steps(cs, 13, 30_000)
    assert held() == before
    assert min_refutation_steps(cs, 13, 30_000) == first
    assert min_refutation_steps(cs, 13) == SPMeasure(7, False, 13, 242_598)


def random_3cnf(rng, n_vars):
    clauses = []
    for _ in range(5 * n_vars):
        vs = rng.sample(range(n_vars), 3)
        clauses.append(frozenset((v + 1) if rng.random() < 0.5 else -(v + 1) for v in vs))
    return ClauseSet(tuple(clauses), n_vars)


def test_dp_refutation_agrees_with_brute_force_and_replay():
    rng = random.Random(8200)
    sets = [random_clause_set(rng) for _ in range(200)]
    sets += [random_3cnf(rng, n) for n in range(4, 13) for _ in range(6)]
    refuted = 0
    for cs in sets:
        proof = dp_refutation(cs)
        assert (proof is None) == brute_force_satisfiable(cs)
        if proof is None:
            continue
        refuted += 1
        assert check_resolution(cs, proof).ok
        derived = replay(cs, proof)
        assert derived is not None and derived[-1] == frozenset()
    assert refuted >= 60


def test_dp_refutes_the_reflexivity_translations_quickly():
    # the n=3 instance took hundreds of seconds under index-order elimination
    for n, steps in ((1, 18), (2, 27), (3, 36)):
        cs = negation_clauses(translate_delta0(parse_formula("x = x"), x="x", n=n)).clause_set
        proof = dp_refutation(cs)
        assert proof is not None and len(proof.steps) == steps
        assert check_resolution(cs, proof).ok


# --- hostile input ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda d: "!" * d + "x0",
        lambda d: "(" * d + "x0" + ")" * d,
        lambda d: " & ".join(["x0"] * (d + 1)),
        lambda d: " | ".join(["x1", "x0"] * (d // 2) + ["x0"]),
        lambda d: " -> ".join(["x0"] * (d + 1)),
        lambda d: "!(" * (d // 2) + "x0" + ")" * (d // 2),
    ],
    ids=["not", "parens", "and", "or", "implies", "not-parens"],
)
def test_prop_nesting_cap_boundary(make):
    f = parse_prop(make(MAX_PROP_NESTING))
    assert tseitin(f).clause_set.clauses
    print_prop(f)
    eval_prop(f, {0: True, 1: False})
    with pytest.raises(ValueError, match=f"nesting deeper than {MAX_PROP_NESTING} levels"):
        parse_prop(make(MAX_PROP_NESTING + 2))


def test_prop_nesting_cap_counts_the_built_depth():
    # each group is shallow as written, but the chains stack up in the tree
    text = "x0"
    for _ in range(40):
        text = "(" + text + " & x1" * 40 + ")"
    with pytest.raises(ValueError, match="nesting deeper"):
        parse_prop(text)


def _grouped_chains() -> str:
    text = "x0"
    for _ in range(40):
        text = "(" + text + " & x1" * 40 + ")"
    return text


_M = MAX_PROP_NESTING
# (input, message): every way parse_prop refuses a text, recorded before the
# parser became one loop over the connective table
PROP_PARSE_ERRORS = [
    ("x0 $ x1", "bad character '$' in propositional formula"),
    ("x0 & & x1", "unexpected token '&'"),
    ("x0 ->", "unexpected token None"),
    ("x0 x1", "trailing tokens after formula: ['x1']"),
    ("(x0 & x1) -> T)", "trailing tokens after formula: [')']"),
    ("(x0 | x1", "expected ')' at token 4"),
    ("!" * (_M + 1) + "x0", "nesting deeper than 1000 levels at token 1001"),
    ("(" * (_M + 1) + "x0" + ")" * (_M + 1), "nesting deeper than 1000 levels at token 1001"),
    (" -> ".join(["x0"] * (_M + 2)), "nesting deeper than 1000 levels at token 2002"),
    ("!(x0 -> " * 400 + "x0" + ")" * 400, "nesting deeper than 1000 levels at token 1334"),
    (" & ".join(["x0"] * (_M + 2)), "nesting deeper than 1000 levels at token 2003"),
    (" | ".join(["x0"] * (_M + 2)), "nesting deeper than 1000 levels at token 2003"),
    (_grouped_chains(), "nesting deeper than 1000 levels at token 2068"),
]


@pytest.mark.parametrize(
    "text, message",
    PROP_PARSE_ERRORS,
    ids=[
        "bad-character",
        "unexpected-mid-text",
        "unexpected-at-end",
        "trailing-atom",
        "trailing-paren",
        "expected-paren",
        "written-not",
        "written-parens",
        "written-implies",
        "written-mixed",
        "built-and",
        "built-or",
        "built-grouped-and",
    ],
)
def test_parse_prop_errors_are_pinned(text, message):
    with pytest.raises(ValueError) as info:
        parse_prop(text)
    assert str(info.value) == message


def test_dimacs_rejects_negative_counts():
    for header in ("p cnf -3 0", "p cnf 3 -1"):
        with pytest.raises(ValueError, match="negative"):
            from_dimacs(header + "\n")
