"""`print_proof_text` prints each atom object once per proof and reuses its
text wherever the atom stands again.

It is compared with the printer it replaced, kept here verbatim as a
reference: a walk of every node at every occurrence, shared or not.  The
proof text must be byte-identical on chains, derived proofs, proofs that
share one atom object across every kind of position, parsed proofs and the
`x = 0` certificate; and the memo must not cost more than twice the
reference's peak memory on a deep right-nested chain, where a memo of whole
implications would be quadratic."""

import random
import tracemalloc

import pytest

from proofforge.bench import mp_chain
from proofforge.calculus import AxiomJust, BGenJust, ComputeJust, MPJust, Proof, ProofLine, _print_justification
from proofforge.calculus import parse_proof_text, print_proof_text
from proofforge.corpus import derived_theorem_corpus
from proofforge.goedel import diagonalize, standard_theory
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
    conj,
    numeral,
    parse_formula,
)

# --- the printer as it was -------------------------------------------------------


def _print(root):
    """Canonical text of a term or formula, built without recursion.

    The stack holds nodes still to print and literal strings, in reverse
    output order.  Parenthesization, by position:
      * left of + and arguments of S, functions and =: never;
      * right of + and left of *: a Plus;
      * right of * and a quantifier bound: a Plus or a Times;
      * left of ->: an Implies.
    """
    out: list[str] = []
    emit = out.append
    stack: list = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        x = pop()
        cls = type(x)
        if cls is str:
            emit(x)
        elif cls is DefFn:
            emit(x.symbol + "(")
            push(")")
            args = x.args
            for k in range(len(args) - 1, 0, -1):
                push(args[k])
                push(", ")
            if args:
                push(args[0])
        elif cls is Succ:
            depth = 0
            while cls is Succ:
                depth += 1
                x = x.arg
                cls = type(x)
            emit("S(" * depth)
            push(")" * depth)
            push(x)
        elif cls is Var:
            emit(x.name)
        elif cls is Zero:
            emit("0")
        elif cls is Eq:
            push(x.right)
            push(" = ")
            push(x.left)
        elif cls is Implies:
            push(x.consequent)
            a = x.antecedent
            if type(a) is Implies:
                push(") -> ")
                push(a)
                emit("(")
            else:
                push(" -> ")
                push(a)
        elif cls is Not:
            emit("!(")
            push(")")
            push(x.body)
        elif cls is Plus:
            b = x.right
            if type(b) is Plus:
                push(")")
                push(b)
                push(" + (")
            else:
                push(b)
                push(" + ")
            push(x.left)
        elif cls is Times:
            b = x.right
            if type(b) is Plus or type(b) is Times:
                push(")")
                push(b)
                push(" * (")
            else:
                push(b)
                push(" * ")
            a = x.left
            if type(a) is Plus:
                push(")")
                push(a)
                emit("(")
            else:
                push(a)
        elif cls is ForAll:
            emit(f"forall {x.var} (")
            push(")")
            push(x.body)
        elif cls is BoundedForAll or cls is BoundedExists:
            emit(f"forall<= {x.var} " if cls is BoundedForAll else f"exists<= {x.var} ")
            push(")")
            push(x.body)
            b = x.bound
            if type(b) is Plus or type(b) is Times:
                push(") (")
                push(b)
                emit("(")
            else:
                push(" (")
                push(b)
        else:
            raise TypeError(f"not a term or formula: {x!r}")
    return "".join(out)


def reference_proof_text(proof: Proof) -> str:
    """`print_proof_text` as it was, on the printer above."""
    out = []
    for i, line in enumerate(proof.lines, start=1):
        out.append(f"{i}. {_print(line.formula)} ; {_print_justification(line.justification)}")
    return "\n".join(out) + "\n"


# --- the proofs compared ---------------------------------------------------------

THEORY = standard_theory()

# The (k, m) points of perfbench's certify workload, which does not draw
# them by seed.
CERTIFY_CHAIN_POINTS = [
    (25, 45), (36, 38), (48, 52), (59, 13), (70, 16), (82, 27), (93, 41), (104, 63),
    (116, 9), (127, 56), (138, 20), (150, 31), (161, 24), (172, 59), (184, 34), (195, 48),
]


def _shared_atom_proofs() -> list[Proof]:
    """Proofs in which one atom object stands in every kind of position:
    alone, under `!`, on both sides of `->` (the left one parenthesized), in
    quantifier bodies next to a bound that is parenthesized or not, and
    inside the expansions of `&` and `|`; beside it, other atom objects, one
    equal to it and one with an equal left side."""
    x, y = Var("x"), Var("y")
    a = Eq(Plus(x, Times(numeral(3), Plus(y, ZERO))), DefFn("pair", (x, Succ(y))))
    b = Eq(Plus(x, Times(numeral(3), Plus(y, ZERO))), ZERO)
    c = Eq(a.left, a.right)
    lines = [
        a,
        Not(a),
        Implies(a, a),
        Implies(Implies(a, b), Implies(c, a)),
        ForAll("x", a),
        BoundedForAll("y", numeral(2), Implies(a, Not(a))),
        BoundedExists("x", Times(y, Plus(Succ(y), ZERO)), a),
        conj(a, conj(b, a)),
        Implies(Not(a), a),  # a | a
        Not(Not(Implies(conj(a, c), ForAll("y", Not(b))))),
        b,
        c,
    ]
    justs = [ComputeJust(), AxiomJust("P1"), AxiomJust("EQREFL", term=a.left), MPJust(1, 0),
             BGenJust(0, "y", Plus(a.left, ZERO)), ComputeJust(value=7), None]
    shared = Proof(tuple(ProofLine(f, justs[i % len(justs)]) for i, f in enumerate(lines)))
    # the same atom deep inside a long prefix, and alone on a line of its own
    deep = a
    for i in range(40):
        deep = Implies(Eq(numeral(i), a.right), deep) if i % 2 else Not(Implies(deep, a))
    return [shared, Proof((ProofLine(deep), ProofLine(a), ProofLine(Not(deep))))]


def _assert_same_text(proofs: list[Proof]) -> None:
    for proof in proofs:
        expected = reference_proof_text(proof)
        assert print_proof_text(proof) == expected
        # parsed back, equal subtrees are one object across the lines
        parsed = parse_proof_text(expected, THEORY.arities())
        assert print_proof_text(parsed) == expected


def test_chains_print_as_the_reference_does():
    _assert_same_text([mp_chain(THEORY, k, m)[0] for k, m in CERTIFY_CHAIN_POINTS])


def test_derived_proofs_print_as_the_reference_does():
    samples = derived_theorem_corpus(THEORY, random.Random(29), 300)
    assert {s.strategy for s in samples} >= {"conj", "identity", "dne", "chain"}
    _assert_same_text([s.proof for s in samples])


def test_a_shared_atom_prints_as_the_reference_does():
    proofs = _shared_atom_proofs()
    _assert_same_text(proofs)
    # the reading back shares every atom of the shared-atom proof
    parsed = parse_proof_text(reference_proof_text(proofs[0]), THEORY.arities())
    assert parsed.lines[1].formula.body is parsed.lines[0].formula is parsed.lines[11].formula
    # as print_formula, the proof text takes no term for a line's formula
    with pytest.raises(TypeError, match="not a formula"):
        print_proof_text(Proof((ProofLine(proofs[0].lines[0].formula.left),)))


def test_the_fixed_point_certificate_prints_as_the_reference_does():
    # its sha256 is pinned in test_syntax
    _assert_same_text([diagonalize(THEORY, parse_formula("x = 0")).equivalence])


def _peak(printer, proof: Proof) -> tuple[str, int]:
    tracemalloc.start()
    try:
        text = printer(proof)
        return text, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_deep_chain_of_distinct_atoms_prints_in_linear_memory():
    # memoizing each implication's text would hold every suffix of the
    # chain, quadratic in its depth; atoms alone stay within the text's size
    chain = Eq(numeral(100), ZERO)
    for i in range(3_999):
        chain = Implies(Eq(Var(f"v{i}"), numeral(100 + i % 50)), chain)
    proof = Proof((ProofLine(chain),))
    expected, reference = _peak(reference_proof_text, proof)
    text, peak = _peak(print_proof_text, proof)
    assert text == expected and len(text) > 1_000_000
    assert peak <= 2 * reference, (peak, reference)
