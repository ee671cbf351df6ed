"""Terms and formulas: printing, parsing, substitution, and the size metric."""

import hashlib
import os
import random
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

import proofforge
from proofforge.bench import _equal_value_atoms
from proofforge.calculus import AxiomJust, MPJust, parse_proof_text, print_proof_text
from proofforge.corpus import derived_theorem_corpus, diagonal_shapes, random_delta0_sentence
from proofforge.goedel import DEFFN_ARITIES, code_to_tokens, diagonalize, encode_formula, encode_term, standard_theory
from proofforge.syntax import (
    MAX_NESTING,
    BoundedExists,
    BoundedForAll,
    DefFn,
    Eq,
    ForAll,
    Implies,
    Not,
    Plus,
    Succ,
    SyntaxErrorWithPos,
    Times,
    Var,
    ZERO,
    Zero,
    formula_size,
    free_variables,
    is_delta0,
    is_sentence,
    node_count,
    numeral,
    numeral_value,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    share_tree,
    substitute,
    term_size,
)

VARS = ("x", "y", "z", "u", "v", "x'", "y''")
DEFFN_SYMBOLS = sorted(DEFFN_ARITIES)


def random_term(rng: random.Random, depth: int) -> object:
    if depth == 0:
        return rng.choice([ZERO, Var(rng.choice(VARS)), numeral(rng.randrange(4))])
    match rng.randrange(5):
        case 0:
            return Succ(random_term(rng, depth - 1))
        case 1:
            return Plus(random_term(rng, depth - 1), random_term(rng, depth - 1))
        case 2:
            return Times(random_term(rng, depth - 1), random_term(rng, depth - 1))
        case 3:
            sym = rng.choice(DEFFN_SYMBOLS)
            return DefFn(sym, tuple(random_term(rng, depth - 1) for _ in range(DEFFN_ARITIES[sym])))
        case _:
            return rng.choice([ZERO, Var(rng.choice(VARS))])


def random_formula(rng: random.Random, depth: int) -> object:
    """Full grammar, unbounded quantifiers included."""
    if depth == 0:
        return Eq(random_term(rng, 1), random_term(rng, 1))
    match rng.randrange(6):
        case 0:
            return Not(random_formula(rng, depth - 1))
        case 1:
            return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        case 2:
            return ForAll(rng.choice(VARS), random_formula(rng, depth - 1))
        case 3:
            bound = random_term(rng, 1)
            v = rng.choice([w for w in VARS if w not in free_variables(bound)])
            return BoundedForAll(v, bound, random_formula(rng, depth - 1))
        case 4:
            bound = random_term(rng, 1)
            v = rng.choice([w for w in VARS if w not in free_variables(bound)])
            return BoundedExists(v, bound, random_formula(rng, depth - 1))
        case _:
            return Eq(random_term(rng, depth - 1), random_term(rng, depth - 1))


def test_print_parse_round_trip_bulk():
    rng = random.Random(1187)
    for i in range(10_000):
        f = random_formula(rng, rng.randrange(1, 5))
        text = print_formula(f)
        assert parse_formula(text) == f, f"iteration {i}: {text}"


def test_term_print_parse_round_trip_bulk():
    rng = random.Random(3319)
    for _ in range(5_000):
        t = random_term(rng, rng.randrange(1, 5))
        assert parse_term(print_term(t)) == t


@pytest.mark.parametrize(
    "text",
    [
        "0 = 0",
        "!(0 = 0)",
        "S(0) + S(S(0)) = S(S(S(0)))",
        "forall x (x = x)",
        "forall<= y x (y = y)",
        "exists<= p S(S(0)) (p = 0)",
        "x * (y + S(0)) = y -> y = x",
        "forall x (forall<= y x (exists<= z y (z + y = x)))",
        # a closed run of one-argument heads followed by * and then +
        "S(dbl(S(0)) * S(0)) + 0 = 0",
    ],
    ids=lambda s: s.replace(" ", ""),
)
def test_round_trip_pinned_shapes(text):
    f = parse_formula(text)
    assert parse_formula(print_formula(f)) == f


@pytest.mark.parametrize(
    "text, size",
    [
        ("0 = 0", 3),
        ("S(S(0))", 3),
        ("!(0 = 0)", 4),
        ("0 + S(0) = S(0)", 7),
        ("forall x (x = x)", 5),
        ("forall<= y x (y = y)", 6),
    ],
)
def test_size_metric_pins(text, size):
    try:
        obj = parse_formula(text)
        assert formula_size(obj) == size
    except SyntaxErrorWithPos:
        assert term_size(parse_term(text)) == size


def test_numeral_round_trip():
    for n in range(0, 40):
        t = numeral(n)
        assert numeral_value(t) == n
        assert term_size(t) == n + 1
    assert numeral_value(Plus(ZERO, ZERO)) is None


def naive_substitute(f, var, rep):
    """Blind textual substitution — correct only when no capture can happen."""
    match f:
        case Eq(a, b):
            return Eq(naive_substitute_term(a, var, rep), naive_substitute_term(b, var, rep))
        case Not(a):
            return Not(naive_substitute(a, var, rep))
        case Implies(a, b):
            return Implies(naive_substitute(a, var, rep), naive_substitute(b, var, rep))
        case ForAll(v, body):
            return f if v == var else ForAll(v, naive_substitute(body, var, rep))
        case BoundedForAll(v, bound, body):
            nb = naive_substitute_term(bound, var, rep)
            return BoundedForAll(v, nb, body if v == var else naive_substitute(body, var, rep))
        case BoundedExists(v, bound, body):
            nb = naive_substitute_term(bound, var, rep)
            return BoundedExists(v, nb, body if v == var else naive_substitute(body, var, rep))
    raise AssertionError(f)


def naive_substitute_term(t, var, rep):
    match t:
        case Var(name):
            return rep if name == var else t
        case Succ(a):
            return Succ(naive_substitute_term(a, var, rep))
        case Plus(a, b):
            return Plus(naive_substitute_term(a, var, rep), naive_substitute_term(b, var, rep))
        case Times(a, b):
            return Times(naive_substitute_term(a, var, rep), naive_substitute_term(b, var, rep))
        case DefFn(sym, args):
            return DefFn(sym, tuple(naive_substitute_term(a, var, rep) for a in args))
    return t


def test_substitution_matches_naive_oracle_when_capture_free():
    # closed replacements can never be captured, so the naive recursion is a
    # sound oracle there
    rng = random.Random(94321)
    for _ in range(2_000):
        f = random_formula(rng, rng.randrange(1, 4))
        rep = numeral(rng.randrange(5))
        var = rng.choice(VARS)
        assert substitute(f, var, rep) == naive_substitute(f, var, rep)


def test_substitution_avoids_capture():
    # [x := y] under a binder for y must rename the binder, not capture
    f = ForAll("y", Eq(Var("x"), Var("y")))
    g = substitute(f, "x", Var("y"))
    assert isinstance(g, ForAll)
    assert g.var != "y"
    assert free_variables(g) == frozenset({"y"})


def test_substitution_renames_away_from_the_bound():
    # the fresh name avoids the bound's variables: forall<= y' y' ... would
    # mention its own variable in its bound
    f = parse_formula("forall<= y y' (x = y)")
    assert print_formula(substitute(f, "x", Var("y"))) == "forall<= y'' y' (y = y'')"
    # a replacement landing in the bound renames the binder too, though x
    # is not free in the body
    f = parse_formula("exists<= y x (y = y)")
    assert print_formula(substitute(f, "x", Var("y"))) == "exists<= y' y (y' = y')"


def test_substitution_output_parses_back_to_itself():
    rng = random.Random(7717)
    for i in range(3_000):
        f = random_formula(rng, rng.randrange(1, 5))
        for rep in (random_term(rng, rng.randrange(3)), Var(rng.choice(VARS))):
            g = substitute(f, rng.choice(VARS), rep)
            text = print_formula(g)
            assert parse_formula(text) == g, f"iteration {i}: {text}"


def test_substitution_through_a_deep_nest():
    # at the default recursion limit: 3,990 nested dbl( in a term and an atom
    t = Var("x")
    for _ in range(3_990):
        t = DefFn("dbl", (t,))
    u = substitute(t, "x", numeral(2))
    assert print_term(u) == "dbl(" * 3_990 + "S(S(0))" + ")" * 3_990
    f = substitute(Eq(t, t), "x", ZERO)
    assert free_variables(f) == frozenset() and formula_size(f) == 2 * 3_991 + 1


def test_substitution_no_free_occurrence_is_identity():
    f = parse_formula("forall x (x = x)")
    assert substitute(f, "x", numeral(3)) == f


def test_free_variables_and_sentences():
    assert free_variables(parse_formula("x + y = z")) == frozenset({"x", "y", "z"})
    assert free_variables(parse_formula("forall x (x = y)")) == frozenset({"y"})
    # a bound term contributes its variables even though the body binds v
    assert free_variables(parse_formula("forall<= v x (v = v)")) == frozenset({"x"})
    assert is_sentence(parse_formula("forall x (x = x)"))
    assert not is_sentence(parse_formula("x = x"))


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("0 = 0", True),
        ("forall<= y S(S(0)) (y = y)", True),
        ("forall x (x = x)", False),
        ("exists<= y x (forall z (z = y))", False),
    ],
)
def test_is_delta0(text, verdict):
    assert is_delta0(parse_formula(text)) is verdict


_DEEP_DELTA0 = """
import sys

from proofforge.syntax import ZERO, BoundedExists, Eq, ForAll, Implies, Not, Var, is_delta0

# a recursive walk would fail far below this depth
sys.setrecursionlimit(1000)
atom = Eq(ZERO, ZERO)
chain = atom
for _ in range(20_000):
    chain = Not(chain)
assert is_delta0(chain) is True
unbounded = ForAll("x", Eq(Var("x"), ZERO))
deep = unbounded
right = atom
for _ in range(20_000):
    deep = Not(deep)
    right = Implies(BoundedExists("y", ZERO, atom), right)
assert is_delta0(deep) is False
assert is_delta0(right) is True
assert is_delta0(Implies(right, Not(deep))) is False
print("ok")
"""


def test_is_delta0_walks_deep_formulas_without_recursion():
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_DELTA0], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


def test_is_delta0_rejects_a_non_formula():
    atom = Eq(ZERO, ZERO)
    for bad in (ZERO, Var("x"), "0 = 0", Not(ZERO), Implies(atom, Succ(ZERO)), Not(Implies(atom, None))):
        with pytest.raises(TypeError, match="not a formula"):
            is_delta0(bad)
    # the walk stops at the first unbounded quantifier, antecedent first,
    # as the recursive one did: a non-formula after it is never reached
    assert is_delta0(Implies(ForAll("x", atom), ZERO)) is False
    with pytest.raises(TypeError, match="not a formula"):
        is_delta0(Implies(ZERO, ForAll("x", atom)))


# The parser's error contract, (input, message, offset), pinned; arities as
# in the standard theory.
PARSE_ERRORS = [
    ("", "expected a term, found 'end of input'", 0),
    ("0 =", "expected a term, found 'end of input'", 3),
    ("forall (x = x)", "expected a variable, found '('", 7),
    ("S(0", "expected ')'", 3),
    ("x = y ->", "expected a term, found 'end of input'", 8),
    ("= 0", "expected a term, found '='", 0),
    ("   ", "expected a term, found 'end of input'", 3),
    # a bad character reports the end of the previous token
    ("0 =  $ 0", "unexpected character '$'", 3),
    ("0 = 0 \t@", "unexpected character '@'", 5),
    ("$ = 0", "unexpected character '$'", 0),
    ("foo(0) = 0", "unknown function symbol 'foo'", 0),
    ("sub(0) = 0", "'sub' expects 2 arguments, got 1", 0),
    ("dbl = 0", "'dbl' is a function symbol, not a variable", 0),
    ("forall<= x S(x) (x = x)", "bound of BoundedForAll mentions its own variable 'x'", 16),
    ("exists<= y y + 0 (y = y)", "bound of BoundedExists mentions its own variable 'y'", 13),
    ("dbl(0 = 0", "expected ')'", 6),
    ("S(S(0) = 0", "expected ')'", 7),
    ("x + 0", "expected '=', found 'end of input'", 5),
    ("0 -> 0 = 0", "expected '=', found '->'", 2),
    ("0 = 0 )", "trailing input ')'", 6),
    ("0 = 0 0", "trailing input '0'", 6),
    # inside runs of one-argument heads: extra arguments are read before the
    # arity check, and an operator after a closed level continues its term
    ("dbl(dbl(0, 0)) = 0", "'dbl' expects 1 arguments, got 2", 4),
    ("S(0, 0) = 0", "expected ')'", 3),
    ("S(dbl(0) + ) = 0", "expected a term, found ')'", 11),
    ("dbl(S(dbl(0)) = 0", "expected ')'", 14),
    ("dbl(sub(0)) = 0", "'sub' expects 2 arguments, got 1", 4),
    # the biconditional is not part of the input language
    ("0 = 0 <-> 0 = 0", "unexpected character '<'", 5),
    # a group whose term is not closed by ")" holds an atom
    ("(x", "expected '=', found 'end of input'", 2),
    ("(0 0) = 0", "expected '=', found '0'", 3),
    ("S x = 0", "expected '('", 2),
    ("pair(0 0) = 0", "expected ')'", 7),
    ("(0 = 0", "expected ')'", 6),
    ("forall x", "expected a term, found 'end of input'", 8),
    ("0 = 0 & x", "expected '=', found 'end of input'", 9),
    # a group that holds a formula is not an atom's left side
    ("((0 = 0) = 0)", "expected ')'", 9),
    ("0 + (0 = 0) = 0", "expected ')'", 7),
    # a function symbol as a bound opens an application
    ("forall<= x dbl (x = x)", "expected ')'", 18),
]


TERM_PARSE_ERRORS = [
    ("0 = 0", "trailing input '='", 2),
    ("!x", "expected a term, found '!'", 0),
    ("(0 = 0)", "expected ')'", 3),
]


@pytest.mark.parametrize(
    "parse, bad, message, offset",
    [(parse_formula, *row) for row in PARSE_ERRORS] + [(parse_term, *row) for row in TERM_PARSE_ERRORS],
    ids=[row[0] for row in PARSE_ERRORS] + [f"term {row[0]}" for row in TERM_PARSE_ERRORS],
)
def test_parse_errors_carry_position(parse, bad, message, offset):
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse(bad, DEFFN_ARITIES)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.pos == offset


@pytest.mark.parametrize(
    "parse, item, op, offset",
    [(parse_term, "0", " + ", 16_002), (parse_formula, "0 = 0", " -> ", 36_006)],
    ids=["+", "->"],
)
def test_operator_chains_count_one_level_per_operator(parse, item, op, offset):
    # a chain of MAX_NESTING operators parses, one more crosses the cap at
    # its last operator
    parse(op.join([item] * (MAX_NESTING + 1)))
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse(op.join([item] * (MAX_NESTING + 2)))
    assert str(info.value) == f"nesting deeper than {MAX_NESTING} levels (at offset {offset})"


def test_nesting_cap_is_inclusive():
    text = "S(" * MAX_NESTING + "0" + ")" * MAX_NESTING
    assert parse_term(text) == numeral(MAX_NESTING)
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse_term("S(" + text + ")")
    # the cap is crossed at the innermost S
    assert info.value.pos == 2 * MAX_NESTING


def test_nesting_cap_is_inclusive_on_mixed_heads():
    half = MAX_NESTING // 2
    text = "dbl(S(" * half + "0" + "))" * half
    expected = ZERO
    for _ in range(half):
        expected = DefFn("dbl", (Succ(expected),))
    assert parse_term(text) == expected
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse_term("S(" + text + ")")
    # the cap is crossed at the innermost S
    assert str(info.value) == f"nesting deeper than {MAX_NESTING} levels (at offset {6 * half})"


def test_nested_term_parentheses_parse_in_linear_time():
    # each "(" is read once, not first as a formula and again as a term
    text = "(" * MAX_NESTING + "0" + ")" * MAX_NESTING + " = 0"
    start = time.perf_counter()
    assert parse_formula(text) == Eq(ZERO, ZERO)
    assert time.perf_counter() - start < 1.0


MIXED_GROUPS = [
    ("((x + y) * z = w)", Eq(Times(Plus(Var("x"), Var("y")), Var("z")), Var("w"))),
    ("((0) = 0 -> (0 = 0))", Implies(Eq(ZERO, ZERO), Eq(ZERO, ZERO))),
    ("(((0)) = (0))", Eq(ZERO, ZERO)),
    ("((0 = 0))", Eq(ZERO, ZERO)),
    (
        "(S(x) * (y + 0) = x) & x = 0",
        Not(Implies(Eq(Times(Succ(Var("x")), Plus(Var("y"), ZERO)), Var("x")), Not(Eq(Var("x"), ZERO)))),
    ),
]


@pytest.mark.parametrize("text, tree", MIXED_GROUPS, ids=[row[0] for row in MIXED_GROUPS])
def test_groups_of_terms_and_formulas_mix(text, tree):
    assert parse_formula(text) == tree
    assert parse_formula(print_formula(tree)) == tree


def test_formula_groups_at_the_nesting_cap():
    text = "(" * MAX_NESTING + "0 = 0" + ")" * MAX_NESTING
    start = time.perf_counter()
    assert parse_formula(text) == Eq(ZERO, ZERO)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse_formula("(" + text + ")")
    assert str(info.value) == f"nesting deeper than {MAX_NESTING} levels (at offset {MAX_NESTING})"


def test_x_equals_zero_certificate_is_pinned():
    theory = standard_theory()
    proof = diagonalize(theory, parse_formula("x = 0")).equivalence
    text = print_proof_text(proof)
    assert hashlib.sha256(text.encode()).hexdigest() == "f62341eb0821c7990ed7a71921b33b6a27328d980e9b1ddadfdcc7db9b52c0cf"
    assert parse_proof_text(text, theory.arities()) == proof


def _children(x) -> list:
    names = ("arg", "left", "right", "body", "antecedent", "consequent", "bound")
    return [getattr(x, n) for n in names if hasattr(x, n)] + list(getattr(x, "args", ()))


def _text(x) -> str:
    """The printed text of a term or formula, which the parser reads back to
    an equal tree: two nodes print alike exactly when they are equal."""
    return print_term(x) if type(x) in NODE_TYPES[:6] else print_formula(x)


def _distinct_nodes(*roots) -> list:
    """Every node object reachable from the roots, each once, children first."""
    seen = {}
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        x, done = stack.pop()
        if done:
            seen[id(x)] = x
        elif id(x) not in seen:
            stack.append((x, True))
            stack.extend((c, False) for c in _children(x))
    return list(seen.values())


def test_a_parse_builds_each_distinct_subtree_once():
    theory = standard_theory()
    proof = diagonalize(theory, parse_formula("x = 0")).equivalence
    text = print_proof_text(proof)
    parsed = parse_proof_text(text, theory.arities())
    assert parsed == proof
    objects = nodes = 0
    for line in parsed.lines:
        distinct = _distinct_nodes(line.formula)
        # one object per printed text
        assert len(distinct) == len({_text(x) for x in distinct})
        size = {}
        for x in distinct:
            size[id(x)] = 1 + sum(size[id(c)] for c in _children(x))
        objects += len(distinct)
        nodes += size[id(line.formula)]
    # node objects, against the nodes of the lines' trees counted with repetition
    assert (objects, nodes) == (14_800, 96_004)
    f = parse_formula("S(x) + S(x) = dbl(S(x)) -> S(x) + S(x) = dbl(S(x))")
    assert f.antecedent is f.consequent
    assert f.antecedent.left.left is f.antecedent.left.right is f.antecedent.right.args[0]


def _proof_roots(proof) -> list:
    """The formulas of a proof's lines and the terms of their justifications."""
    roots = []
    for line in proof.lines:
        roots.append(line.formula)
        just = line.justification
        roots += [t for t in (getattr(just, "term", None), getattr(just, "bound", None)) if t is not None]
    return roots


def test_a_proof_text_shares_each_distinct_subtree_across_its_lines():
    theory = standard_theory()
    proof = diagonalize(theory, parse_formula("x = 0")).equivalence
    parsed = parse_proof_text(print_proof_text(proof), theory.arities())
    distinct = _distinct_nodes(*_proof_roots(parsed))
    # one object per printed text over the whole text: 260, where the lines,
    # each shared on its own, hold 14,800
    assert len(distinct) == len({_text(x) for x in distinct}) == 260
    lines = parsed.lines
    for line in lines:
        just = line.justification
        if isinstance(just, MPJust):
            assert lines[just.implication].formula.antecedent is lines[just.antecedent].formula
            assert lines[just.implication].formula.consequent is line.formula
        elif isinstance(just, AxiomJust) and just.schema == "EQREFL":
            assert just.term is line.formula.left is line.formula.right


def test_a_derivation_shares_each_distinct_subtree_across_its_lines():
    proof = diagonalize(standard_theory(), parse_formula("x = 0")).equivalence
    distinct = _distinct_nodes(*_proof_roots(proof))
    assert len(distinct) == len({_text(x) for x in distinct}) == 260


def test_share_tree_enters_new_subtrees_and_finds_known_ones():
    table: dict = {}
    x = Var("x")
    a = Eq(Plus(x, numeral(3)), Succ(Var("y")))
    assert share_tree(a, table) is a  # nothing equal is known: a enters as it is
    b = Eq(Plus(Var("x"), numeral(3)), Succ(Var("y")))
    assert share_tree(b, table) is a
    size = len(table)
    assert share_tree(a, table) is a and share_tree(b, table) is a and len(table) == size
    # a new node over known children enters as it is; one over copies is rebuilt
    c = Implies(a, a)
    assert share_tree(c, table) is c
    d = share_tree(Implies(a, Eq(Plus(Var("x"), numeral(3)), Succ(Var("z")))), table)
    assert d.antecedent is a and d.consequent.left is a.left and d.consequent.right.arg is not a.right.arg
    assert share_tree(Zero(), table) is ZERO
    # the parser keys nodes alike, so a table serves parses and built trees
    assert parse_formula("x + S(S(S(0))) = S(y) -> x + S(S(S(0))) = S(z)", share=table) is d
    assert parse_term("S(y)", share=table) is a.right
    y = a.right.arg
    for quantifier in (ForAll("x", a), BoundedForAll("x", y, a), BoundedExists("x", y, a)):
        assert share_tree(quantifier, table) is quantifier
    assert share_tree(BoundedExists("x", Var("y"), b), table) is quantifier
    assert share_tree(BoundedExists("x'", y, a), table) is not quantifier
    assert share_tree(BoundedForAll("x", ZERO, a), table) is not share_tree(BoundedForAll("x", y, a), table)
    f = DefFn("pair", (x, ZERO))
    assert share_tree(f, table) is f and share_tree(DefFn("pair", (Var("x"), Zero())), table) is f
    assert share_tree(DefFn("pair", (ZERO, x)), table) is not f


_DEEP_SHARING = """
import sys

from proofforge.syntax import ZERO, Eq, Not, Succ, node_count, numeral, share_tree

def negations(n):
    f = Eq(ZERO, ZERO)
    for _ in range(n):
        f = Not(f)
    return f

# a recursive walk of these trees would fail far below their depth
sys.setrecursionlimit(200)
deep = [numeral(50_000), negations(20_000), Eq(numeral(50_000), numeral(49_999))]
assert [node_count(tree) for tree in deep] == [50_001, 20_003, 100_002]
table = {}
assert share_tree(deep[0], table) is deep[0] and share_tree(deep[1], table) is deep[1]
eq = share_tree(deep[2], table)
assert eq.left is deep[0] and eq.right is deep[0].arg
assert share_tree(numeral(50_000), table) is deep[0]
print("ok")
"""


def test_node_count_and_share_tree_walk_deep_trees_without_recursion():
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_SHARING], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


def test_node_count_is_what_the_reference_walk_compares():
    theory = standard_theory()
    proof = diagonalize(theory, parse_formula("x = 0")).equivalence
    nodes = _distinct_nodes(*_proof_roots(proof))
    nodes += [parse_formula(t) for t in ("forall x forall y (x * S(y) = x * y + x)", "exists<= z S(x) pair(z, z) = 0")]
    for x in nodes:
        assert node_count(x) == _reference_walk(x, _copy(x))[1]


_DEEP_PRINT = """
from proofforge.syntax import ZERO, DefFn, Eq, Not, print_formula, print_term

n = 50_000
t = ZERO
for _ in range(n):
    t = DefFn("dbl", (t,))
assert print_term(t) == "dbl(" * n + "0" + ")" * n
f = Eq(ZERO, ZERO)
for _ in range(n):
    f = Not(f)
assert print_formula(f) == "!(" * n + "0 = 0" + ")" * n
print("ok")
"""


def test_printing_deep_chains_does_not_recurse():
    # a subprocess, so that a stack overflow fails this test instead of
    # killing the test run
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_PRINT], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


_DEEP_WALKS = """
import sys

default = sys.getrecursionlimit()

from proofforge.syntax import MAX_NESTING, ZERO, formula_size, free_variables, parse_formula, print_formula, substitute

assert sys.getrecursionlimit() == default
text = "!" * MAX_NESTING + "x = 0"
f = parse_formula(text)
assert free_variables(f) == {"x"}
assert formula_size(f) == MAX_NESTING + 3
g = substitute(f, "x", ZERO)
assert free_variables(g) == frozenset()
assert print_formula(g) == "!(" * MAX_NESTING + "0 = 0" + ")" * MAX_NESTING
print("ok")
"""


def test_importing_syntax_alone_covers_formulas_nested_to_the_cap():
    # a fresh interpreter that has imported nothing but proofforge.syntax,
    # at the default recursion limit: no walk recurses
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_WALKS], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


_DEEP_REPR = """
from proofforge.syntax import ZERO, Eq, Not

f = Eq(ZERO, ZERO)
for _ in range(20_000):
    f = Not(f)
try:
    repr(f)
except RecursionError:
    pass
print("ok")
"""


def test_repr_of_a_deep_chain_does_not_kill_the_interpreter():
    # the generated repr recurses; at the default recursion limit it raises
    # RecursionError long before the C stack runs out
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_REPR], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


def test_parser_checks_function_symbols_against_the_default_table():
    with pytest.raises(SyntaxErrorWithPos, match="unknown function symbol 'foo'"):
        parse_formula("foo(0) = 0")
    assert parse_term("dbl(0)") == DefFn("dbl", (ZERO,))


def test_term_variables():
    assert free_variables(parse_term("x + S(y) * 0")) == frozenset({"x", "y"})
    assert free_variables(numeral(7)) == frozenset()


_DEEP_HASH_AND_SIZE = """
import sys

from proofforge.syntax import ZERO, Eq, Not, formula_size, numeral, term_size

def negations(n):
    f = Eq(ZERO, ZERO)
    for _ in range(n):
        f = Not(f)
    return f

# hashing and sizing walk the tree without recursion, so a limit far below
# the depth of these trees is no obstacle
sys.setrecursionlimit(1000)
chain, num = negations(20_000), numeral(50_000)
for tree in (chain, num):
    assert hash(tree) == hash(tree)
    assert tree in {tree}
assert term_size(num) == 50_001
assert formula_size(negations(50_000)) == 50_003
assert formula_size(Eq(num, numeral(49_999))) == 100_002
print("ok")
"""


def test_deep_trees_hash_and_size_without_recursion():
    # a subprocess, since a recursive hash of the chain overflows the C stack
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_HASH_AND_SIZE], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


def test_equal_nodes_hash_alike_and_classes_hash_apart():
    theory = standard_theory()
    roots = _proof_roots(diagonalize(theory, parse_formula("x = 0")).equivalence)
    for sample in derived_theorem_corpus(theory, random.Random(5), 40):
        roots += _proof_roots(sample.proof)
    nodes = _distinct_nodes(*roots)
    assert len({type(x) for x in nodes}) == 12  # every node type
    alike = ((Plus, Times, Eq), (Succ, Not), (BoundedForAll, BoundedExists))
    for x in nodes:
        # a copy parsed from the text has no hash cached yet; the parser
        # reads every 0 as ZERO, so Zero's copy is built here
        copy = Zero() if x is ZERO else parse_term(_text(x)) if type(x) in NODE_TYPES[:6] else parse_formula(_text(x))
        assert copy is not x and hash(copy) == hash(x), x
        for classes in alike:
            if type(x) in classes:
                parts = [getattr(x, f.name) for f in fields(x)]
                assert len({hash(cls(*parts)) for cls in classes}) == len(classes), x
    # left-folded chains of + and * over 0, distinct as built: one hash
    # each, where all 70 had one hash while the class was left out
    atoms = _equal_value_atoms(24, 70)
    assert len(set(atoms)) == len(set(map(hash, atoms))) == 70


def test_size_is_the_token_count_of_the_code():
    # an oracle of its own: the number of base-44 digits of the Goedel code
    theory = standard_theory()
    rng = random.Random(40179)
    shapes = diagonal_shapes(theory)
    primed = [
        substitute(parse_formula("forall y (x = y -> exists<= z y (z = x + y))"), "x", parse_term("y + z")),
        parse_formula("forall x' (x' = y'' -> forall<= z'' x' !(z'' = dbl(x')))"),
    ]
    assert len(shapes) == 24 and all("'" in print_formula(f) for f in primed)
    for f in [random_delta0_sentence(rng) for _ in range(300)] + shapes + primed:
        assert formula_size(f) == len(code_to_tokens(encode_formula(f))), print_formula(f)
        for x in _distinct_nodes(f):
            if type(x) in (Var, Zero, Succ, Plus, Times, DefFn):
                assert term_size(x) == len(code_to_tokens(encode_term(x))), print_term(x)


# --- equality and free variables: one walk each, neither recursive ----------

NODE_TYPES = (Var, Zero, Succ, Plus, Times, DefFn, Eq, Not, Implies, ForAll, BoundedForAll, BoundedExists)  # terms first


def test_no_node_class_keeps_a_generated_eq():
    from proofforge import syntax

    for cls in NODE_TYPES:
        assert cls.__eq__ is syntax._eq, cls.__name__
        assert cls.__eq__.__qualname__ != f"{cls.__qualname__}.__eq__"
    x = Var("x")
    assert x.__eq__(Zero()) is NotImplemented and x.__eq__("x") is NotImplemented and x.__eq__(None) is NotImplemented


_DEEP_EQUALITY = """
import sys

from proofforge.syntax import ZERO, Eq, Not, Plus, Succ, Var, Zero, free_variables

def wrap(ctor, n, node):
    for _ in range(n):
        node = ctor(node)
    return node

# equality and free variables walk the tree without recursion, so a limit far
# below the depth of these trees is no obstacle; every copy is built apart,
# down to its atom, so no walk meets a pair of one object
sys.setrecursionlimit(1000)
chains = [wrap(Not, 20_000, Eq(Zero(), Var("x"))) for _ in range(2)]
other = wrap(Not, 20_000, Eq(Zero(), Var("y")))
numerals = [wrap(Succ, 50_000, Zero()) for _ in range(2)]
open_numeral = wrap(Succ, 50_000, Var("z"))
for (a, b), c in ((chains, other), (numerals, open_numeral)):
    assert a == b and b == a and not a != b
    assert a != c and c != a and not a == c
    assert b in {a} and c not in {a}
    assert {a: 1}[b] == 1 and {a: 1}.get(c) is None
assert free_variables(chains[0]) == {"x"} and free_variables(other) == {"y"}
assert free_variables(numerals[0]) == frozenset() and free_variables(open_numeral) == {"z"}
assert free_variables(Eq(Plus(open_numeral, ZERO), numerals[1])) == {"z"}
print("ok")
"""


def test_deep_trees_compare_and_find_free_variables_without_recursion():
    # a subprocess, since a recursive == of the chains overflows the C stack
    env = dict(os.environ, PYTHONPATH=str(Path(proofforge.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _DEEP_EQUALITY], env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr[-2000:]


def _reference_equal(a, b) -> bool:
    """Dataclass equality: field by field, recursively."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, str):
            same = x == y
        elif isinstance(x, tuple):
            same = len(x) == len(y) and all(map(_reference_equal, x, y))
        else:
            same = _reference_equal(x, y)
        if not same:
            return False
    return True


_VISIT_ORDER = {
    Succ: lambda x: [x.arg],
    Plus: lambda x: [x.right, x.left],
    Times: lambda x: [x.right, x.left],
    DefFn: lambda x: list(reversed(x.args)),
    Eq: lambda x: [x.left, x.right],
    Not: lambda x: [x.body],
    Implies: lambda x: [x.consequent, x.antecedent],
    ForAll: lambda x: [x.body],
    BoundedForAll: lambda x: [x.bound, x.body],
    BoundedExists: lambda x: [x.bound, x.body],
}


def _reference_walk(a, b) -> tuple[bool, int]:
    """The verdict and the nodes compared up to the first mismatch of a
    recursive walk in right-first preorder, with the left side of = and a
    quantifier's bound first."""
    if type(a) is not type(b) or any(getattr(a, n, None) != getattr(b, n, None) for n in ("name", "symbol", "var")):
        return False, 1
    if isinstance(a, DefFn) and len(a.args) != len(b.args):
        return False, 1
    parts = _VISIT_ORDER.get(type(a), lambda x: [])
    n = 1
    for p, q in zip(parts(a), parts(b)):
        same, k = _reference_walk(p, q)
        n += k
        if not same:
            return False, n
    return True, n


def _reference_variables(x) -> frozenset:
    """The free variables, by their recursive definition."""
    match x:
        case Var(name):
            return frozenset((name,))
        case Succ(a) | Not(a):
            return _reference_variables(a)
        case Plus(a, b) | Times(a, b) | Eq(a, b) | Implies(a, b):
            return _reference_variables(a) | _reference_variables(b)
        case DefFn(_, args):
            return frozenset().union(*map(_reference_variables, args))
        case ForAll(v, body):
            return _reference_variables(body) - {v}
        case BoundedForAll(v, bound, body) | BoundedExists(v, bound, body):
            return _reference_variables(bound) | (_reference_variables(body) - {v})
    return frozenset()


def _copy(x):
    """An equal tree of new objects."""
    if isinstance(x, (str, tuple)):
        return x if isinstance(x, str) else tuple(map(_copy, x))
    return type(x)(*(_copy(getattr(x, f.name)) for f in fields(x)))


def test_equality_and_free_variables_agree_with_recursive_references():
    from proofforge.calculus import Cost
    from proofforge.syntax import equal

    theory = standard_theory()
    rng = random.Random(16)
    roots = [random_delta0_sentence(rng) for _ in range(300)] + diagonal_shapes(theory)
    roots += [random_formula(rng, 4) for _ in range(300)]  # open, with unbounded quantifiers
    x, y = Var("x"), Var("y")
    # bounds that mention their own variable, which the parser rejects
    roots += [BoundedForAll("x", x, Eq(x, y)), Implies(BoundedExists("y", Plus(y, x), ForAll("x", Eq(x, y))), Eq(y, x))]
    for sample in derived_theorem_corpus(theory, rng, 40):
        roots += _proof_roots(sample.proof)
    nodes = _distinct_nodes(*roots)
    assert {type(x) for x in nodes} == set(NODE_TYPES)
    terms = [t for t in nodes if type(t) in NODE_TYPES[:6]]
    formulas = [f for f in nodes if type(f) in NODE_TYPES[6:]]
    pairs = [(x, x) for x in nodes] + [(x, _copy(x)) for x in nodes]
    for group in (terms, formulas):
        pairs += [(rng.choice(group), rng.choice(group)) for _ in range(20_000)]
    pairs += [(rng.choice(nodes), rng.choice(nodes)) for _ in range(5_000)]  # across kinds
    pairs += [(x, _copy(y)) for x, y in pairs[-5_000:]]
    assert sum(not _reference_equal(a, b) for a, b in pairs) > 40_000
    for a, b in pairs:
        same = _reference_equal(a, b)
        cost = Cost()
        assert equal(a, b, cost) is same and (a == b) is same and (a != b) is not same, (a, b)
        assert (same, cost.symbol_comparisons) == _reference_walk(a, b), (a, b)
    for x in nodes:
        assert free_variables(x) == _reference_variables(x), x
        assert (x == None, x != None, x == 0, x != 0, x == "x") == (False, True, False, True, False)  # noqa: E711
