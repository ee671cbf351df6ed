"""`parse_proof_text` parses each distinct atom text once per proof text.

It is compared with the proof-text parser it replaced, kept here as a
reference: every line read token by token through `parse_formula`, with one
share table for the whole text.  The reference is the old function verbatim
but for its line split, which follows the current one (lines end at "\\n").
On certify's chains and rejected chains, derived proofs, the `x = 0`
certificate, seeded mutations of a few lines of these, and lines nested up
to the cap around atoms first read shallow, both must give equal trees with
the same sharing and the same justifications, or the same error text."""

import random

import pytest

from proofforge import syntax
from proofforge.bench import mp_chain
from proofforge.calculus import _JUST_LINE_RE, AxiomJust, BGenJust, Proof, ProofLine, _parse_justification
from proofforge.calculus import parse_proof_text, print_proof_text
from proofforge.corpus import derived_theorem_corpus
from proofforge.goedel import diagonalize, refutation_target, standard_theory
from proofforge.syntax import MAX_NESTING, Eq, Not, parse_formula
from test_parse_reference import _assert_same_dag, nested_inputs
from test_print_reference import CERTIFY_CHAIN_POINTS

# --- the proof-text parser as it was ---------------------------------------------


def reference_parse_proof_text(text: str, deffn_arities: dict[str, int] | None = None) -> Proof:
    """Parse the proof text format; raises ValueError with the offending line.
    One share table serves the whole text, so equal subtrees are one object
    across its lines and their justification terms."""
    share: dict = {}
    lines: list[ProofLine] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        m = _JUST_LINE_RE.match(raw)
        if m is None:
            raise ValueError(f"proof line {lineno}: expected '<idx>. <formula> ; <justification>'")
        idx = int(m.group(1))
        if idx != len(lines) + 1:
            raise ValueError(f"proof line {lineno}: index {idx} out of order (expected {len(lines) + 1})")
        try:
            formula = parse_formula(m.group(2), deffn_arities, share)
            just = _parse_justification(m.group(3), deffn_arities, share)
        except ValueError as e:
            raise ValueError(f"proof line {lineno}: {e}") from e
        lines.append(ProofLine(formula, just))
    if not lines:
        raise ValueError("empty proof text")
    return Proof(tuple(lines))


# --- the texts compared ----------------------------------------------------------

THEORY = standard_theory()
ARITIES = THEORY.arities()

# The (k, m) points of perfbench's certify rejections, which do not depend
# on the seed either.
CERTIFY_REJECT_POINTS = [(31, 47), (53, 11), (76, 54), (99, 40), (121, 18), (144, 61), (167, 25), (189, 32)]


def _rejected_chain(k: int, m: int) -> Proof:
    proof, _ = mp_chain(THEORY, k, m)
    return Proof(proof.lines + (ProofLine(refutation_target(), proof.lines[-1].justification),))


@pytest.fixture(scope="module")
def certify_texts() -> dict[str, list[str]]:
    return {
        "chain": [print_proof_text(mp_chain(THEORY, k, m)[0]) for k, m in CERTIFY_CHAIN_POINTS],
        "reject": [print_proof_text(_rejected_chain(k, m)) for k, m in CERTIFY_REJECT_POINTS],
        "derived": [print_proof_text(s.proof) for s in derived_theorem_corpus(THEORY, random.Random(30), 300)],
        "certificate": [print_proof_text(diagonalize(THEORY, parse_formula("x = 0")).equivalence)],
    }


def _nesting_texts(n: int) -> list[str]:
    """Proof texts whose last line nests n deep, each after lines that spell
    its atoms shallow; and texts with an atom of one nesting level repeated
    at growing depth, the last line n deep at that atom, one of them a
    quantifier, whose level no count of nesting tokens sees."""
    texts = [f"1. 0 = 0 ; ?\n2. S(0) = 0 ; ?\n3. {line} ; ?\n" for line in nested_inputs(n)]
    for atom in ("S(0) = 0", "forall x 0 = 0"):
        deeper = [atom, "!" + atom, "!" * (n - 2) + atom, "!" * (n - 1) + atom]
        texts.append("".join(f"{i}. {line} ; ?\n" for i, line in enumerate(deeper, start=1)))
    for wrap in (lambda a: "(" * (n - 1) + a + ")" * (n - 1), lambda a: "0 = 0 -> " * (n - 1) + a):
        texts.append(f"1. x + S(0) = x ; ?\n2. {wrap('x + S(0) = x')} ; ?\n")
    return texts


# Single characters and tokens that make and break atoms, connectives,
# formula parentheses, quantifiers, justifications and lines.
NOISE = ("(", ")", "(", ")", "!", "->", "-", ">", "&", "|", "=", " ", "  ", "\t", "0", "x", "S(", "dbl(", "+", "*",
         ",", ";", "forall x ", "exists<= y 0 ", "$", "\n", "\r", "\x0c", " ", " ; ?", "1. ")


def _window(rng: random.Random, text: str) -> str:
    """Two to four consecutive lines of `text`, numbered from 1."""
    lines = text.splitlines()
    start = rng.randrange(len(lines))
    out = []
    for i, line in enumerate(lines[start : start + rng.randrange(2, 5)], start=1):
        out.append(f"{i}. {line.split('. ', 1)[1]}")
    return "\n".join(out) + "\n"


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(len(text) + 1)
        r = rng.randrange(3)
        if r == 0:
            text = text[:k] + rng.choice(NOISE) + text[k:]
        elif r == 1:
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + rng.choice(NOISE) + text[k + 1 :]
    return text


def mutated_texts(texts: dict[str, list[str]], seed: int, n: int) -> list[str]:
    """n mutated windows, a tenth of them from the certificate, whose lines
    take milliseconds each."""
    rng = random.Random(seed)
    kinds = ["chain"] * 3 + ["reject"] * 2 + ["derived"] * 4 + ["certificate"]
    return [_mutate(rng, _window(rng, rng.choice(texts[rng.choice(kinds)]))) for _ in range(n)]


# --- comparison --------------------------------------------------------------------


def _outcome(parse, text: str, arities):
    try:
        return parse(text, arities)
    except ValueError as e:
        return str(e)


def _payload(just) -> list:
    if type(just) is AxiomJust and just.term is not None:
        return [just.term]
    return [just.bound] if type(just) is BGenJust else []


def compare(texts: list[str], arities=ARITIES) -> tuple[int, int]:
    """Parse every text with both parsers; return how many were accepted and
    how many refused."""
    ok = refused = 0
    for text in texts:
        ref = _outcome(reference_parse_proof_text, text, arities)
        new = _outcome(parse_proof_text, text, arities)
        if type(ref) is str or type(new) is str:
            assert new == ref, text
            refused += 1
            continue
        assert [ln.justification for ln in new.lines] == [ln.justification for ln in ref.lines]
        refs = [x for ln in ref.lines for x in (ln.formula, *_payload(ln.justification))]
        news = [x for ln in new.lines for x in (ln.formula, *_payload(ln.justification))]
        _assert_same_dag(refs, news)
        ok += 1
    return ok, refused


@pytest.mark.parametrize("kind", ["chain", "reject", "derived", "certificate"])
def test_certify_texts_parse_as_the_reference_does(certify_texts, kind):
    assert compare(certify_texts[kind]) == (len(certify_texts[kind]), 0)


def _distinct_atoms(proof: Proof) -> int:
    """The number of distinct atom objects of a proof without quantifiers."""
    seen: set[int] = set()
    atoms = 0
    stack = [ln.formula for ln in proof.lines]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) is Eq:
            atoms += 1
        else:
            stack += [x.body] if type(x) is Not else [x.antecedent, x.consequent]
    return atoms


def test_each_distinct_atom_text_is_tokenized_once(certify_texts, monkeypatch):
    # every line of the chains and of the certificate is read as its
    # skeleton: the only texts tokenized are the distinct atoms, which
    # print_proof_text spells alike, and the justifications' terms
    tokenized = []
    tokenize = syntax._tokenize
    monkeypatch.setattr(syntax, "_tokenize", lambda text: tokenized.append(text) or tokenize(text))
    for text in certify_texts["chain"] + certify_texts["reject"] + certify_texts["certificate"]:
        tokenized.clear()
        proof = parse_proof_text(text, ARITIES)
        terms = sum(len(_payload(ln.justification)) for ln in proof.lines)
        assert len(tokenized) == _distinct_atoms(proof) + terms


@pytest.mark.parametrize("n", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
def test_nesting_at_the_cap_parses_as_the_reference_does(n):
    ok, refused = compare(_nesting_texts(n))
    assert refused if n > MAX_NESTING else ok


def test_mutated_texts_parse_as_the_reference_does(certify_texts):
    texts = mutated_texts(certify_texts, 30, 6_000)
    ok, refused = compare(texts)
    assert ok > 400 and refused > 4_000
    # under the default arity table, which adds symbols to the theory's
    compare(texts[:1_000], None)
