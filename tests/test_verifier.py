"""The searching checker: soundness under mutation, closure, cost accounting."""

import random

import pytest
from test_calculus import _fresh
from test_proof_text_reference import CERTIFY_REJECT_POINTS

from proofforge.bench import mp_chain
from proofforge.calculus import ComputeJust, LineCheck, Proof, ProofLine, check_stored_proof, proof_size
from proofforge.corpus import derived_theorem_corpus, random_delta0_sentence
from proofforge.goedel import diagonalize, eval_delta0, refutation_target, standard_theory
from proofforge.syntax import (
    Eq,
    Implies,
    Not,
    formula_size,
    is_delta0,
    is_sentence,
    numeral,
    parse_formula,
)
from proofforge.verifier import check_witness, proof_of, proof_of_with_cost, verify

Q = standard_theory()
RNG_SEED = 7029


def sample_proofs(count):
    rng = random.Random(RNG_SEED)
    return derived_theorem_corpus(Q, rng, count)


def test_verify_accepts_derived_corpus_and_search_agrees_with_stored():
    for sample in sample_proofs(150):
        assert verify(Q, sample.proof).ok, sample.strategy
        # the stored justifications must also replay line by line
        assert check_stored_proof(Q, sample.proof).ok, sample.strategy


def test_conclusions_of_accepted_delta0_proofs_are_true():
    for sample in sample_proofs(150):
        phi = sample.proof.conclusion
        if is_delta0(phi) and is_sentence(phi):
            assert eval_delta0(Q, phi) is True, sample.strategy


def test_cost_report_is_deterministic_except_wall_clock():
    sample = sample_proofs(5)[-1]
    phi = sample.proof.conclusion
    ok1, c1 = proof_of_with_cost(Q, sample.proof, phi)
    ok2, c2 = proof_of_with_cost(Q, sample.proof, phi)
    assert ok1 and ok2
    assert (c1.lines, c1.symbol_comparisons, c1.lines_scanned, c1.pair_searches) == (
        c2.lines,
        c2.symbol_comparisons,
        c2.lines_scanned,
        c2.pair_searches,
    )


def test_verify_counts_only_when_given_a_cost(monkeypatch):
    from proofforge import calculus, verifier

    costs = []
    for owner, name in ((verifier, "find_axiom_justification"), (calculus.LineIndex, "justify")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real: costs.append(args[-1]) or real(*args))
    sample = sample_proofs(5)[-1]
    phi = sample.proof.conclusion
    assert verify(Q, sample.proof).ok and proof_of(Q, sample.proof, phi).ok
    assert check_witness(Q, phi, sample.proof, 3)
    assert costs and all(c is None for c in costs)
    costs.clear()
    ok, report = proof_of_with_cost(Q, sample.proof, phi)
    assert ok and report.symbol_comparisons > 0
    assert costs and all(c is not None for c in costs)


def test_every_prefix_of_a_valid_proof_is_valid():
    sample = max(sample_proofs(40), key=lambda s: len(s.proof.lines))
    for cut in range(1, len(sample.proof.lines) + 1):
        assert verify(Q, Proof(sample.proof.lines[:cut])).ok


def test_concatenation_of_valid_proofs_is_valid():
    a, b = sample_proofs(2)
    glued = Proof(a.proof.lines + b.proof.lines)
    assert verify(Q, glued).ok
    assert glued.conclusion == b.proof.conclusion


def test_empty_proof_rejected_with_diagnostic():
    assert verify(Q, Proof(())) == LineCheck(False, "empty proof")


def test_proof_of_demands_matching_conclusion():
    one = Proof((ProofLine(parse_formula("0 = 0"), ComputeJust()),))
    assert proof_of(Q, one, parse_formula("0 = 0")) == LineCheck(True)
    assert proof_of(Q, one, parse_formula("S(0) = S(0)")) == LineCheck(False, "conclusion differs from the target formula")


def test_a_check_has_no_truth_value():
    one = Proof((ProofLine(parse_formula("0 = 0"), ComputeJust()),))
    with pytest.raises(TypeError, match="LineCheck.ok"):
        bool(proof_of(Q, one, parse_formula("0 = 0")))
    with pytest.raises(TypeError, match="LineCheck.ok"):
        assert check_stored_proof(Q, one)


def mutate(rng, proof):
    """Damage one line's formula; the checker re-searches, so the oracle is
    soundness, not rejection: an accepted mutant with a closed bounded
    conclusion must still be a true statement."""
    lines = list(proof.lines)
    i = rng.randrange(len(lines))
    f = lines[i].formula
    match rng.randrange(3):
        case 0:
            damaged = Not(f)
        case 1:
            damaged = Implies(f, Eq(numeral(rng.randrange(3)), numeral(rng.randrange(3))))
        case _:
            damaged = Eq(numeral(rng.randrange(4)), numeral(rng.randrange(4)))
    lines[i] = ProofLine(damaged, None)
    return Proof(tuple(lines))


def test_mutation_fuzz_never_accepts_a_false_delta0_conclusion():
    rng = random.Random(RNG_SEED + 1)
    corpus = sample_proofs(80)
    accepted_mutants = 0
    for _ in range(600):
        sample = rng.choice(corpus)
        mutant = mutate(rng, sample.proof)
        if verify(Q, mutant).ok:
            accepted_mutants += 1
            phi = mutant.conclusion
            if is_delta0(phi) and is_sentence(phi):
                assert eval_delta0(Q, phi) is True
    # some mutants stay derivable (damage may hit a re-justifiable spot);
    # the point is that none of the accepted ones conclude a falsehood
    assert accepted_mutants < 600


def test_rejected_mutant_reports_the_offending_line():
    one = Proof((ProofLine(parse_formula("S(0) = 0"), None),))
    assert verify(Q, one) == LineCheck(False, "line 1: no justification found")


def test_check_witness_enforces_the_size_bound():
    one = Proof((ProofLine(parse_formula("0 = 0"), ComputeJust()),))
    phi = parse_formula("0 = 0")
    assert proof_size(one) == formula_size(phi) == 3
    assert check_witness(Q, phi, one, 1)
    padded = Proof(
        (
            ProofLine(parse_formula("S(0) = S(0)"), ComputeJust()),
            ProofLine(phi, ComputeJust()),
        )
    )
    assert proof_size(padded) == 9  # 5 + 3 + one separator
    assert not check_witness(Q, phi, padded, 1)  # over budget at k=1
    assert check_witness(Q, phi, padded, 2)  # exactly at the 3**2 bound
    # 3**k is multiplied only up to the proof's size
    assert check_witness(Q, phi, padded, 10**7)


def test_check_witness_rejects_nonpositive_exponent():
    one = Proof((ProofLine(parse_formula("0 = 0"), ComputeJust()),))
    with pytest.raises(ValueError):
        check_witness(Q, parse_formula("0 = 0"), one, 0)


def test_cost_counters_scale_with_proof_length():
    rng = random.Random(RNG_SEED + 2)
    small = derived_theorem_corpus(Q, rng, 1)[0]
    _, c_small = proof_of_with_cost(Q, small.proof, small.proof.conclusion)
    big_lines = small.proof.lines
    while len(big_lines) < 40:
        extra = derived_theorem_corpus(Q, rng, 1)[0]
        big_lines = big_lines + extra.proof.lines
    big = Proof(big_lines)
    ok, c_big = proof_of_with_cost(Q, big, big.conclusion)
    assert ok
    assert c_big.symbol_comparisons > c_small.symbol_comparisons
    assert c_big.lines_scanned > c_small.lines_scanned


@pytest.mark.parametrize("k, counters", [(50, (49, 1510, 408, 392)), (200, (199, 6064, 6633, 6567))])
def test_chain_cost_counters_are_pinned(k, counters):
    # (lines, symbol_comparisons, lines_scanned, pair_searches)
    proof, phi = mp_chain(Q, k, 16)
    ok, c = proof_of_with_cost(Q, proof, phi)
    assert ok
    assert (c.lines, c.symbol_comparisons, c.lines_scanned, c.pair_searches) == counters


def test_deep_cost_counters_are_pinned():
    # (lines, symbol_comparisons, lines_scanned, pair_searches) where lines
    # are long: atoms of size 64, and the fixed-point certificate of x = 0,
    # whose binary numerals are ~1,300 nodes deep
    proof, phi = mp_chain(Q, 200, 64)
    ok, c = proof_of_with_cost(Q, proof, phi)
    assert ok
    assert (c.lines, c.symbol_comparisons, c.lines_scanned, c.pair_searches) == (199, 22044, 6633, 6567)
    result = diagonalize(Q, parse_formula("x = 0"))
    ok, c = proof_of_with_cost(Q, result.equivalence, result.biconditional)
    assert ok
    assert (c.lines, c.symbol_comparisons, c.lines_scanned, c.pair_searches) == (97, 95746, 2413, 2718)


def test_an_unjustifiable_last_line_scans_every_line_before_it():
    # the relation perfbench's certify rejections check: the search looks
    # at all n - 1 lines above the false line, and at nothing more
    for k, m in CERTIFY_REJECT_POINTS:
        chain, phi = mp_chain(Q, k, m)
        broken = Proof(chain.lines + (ProofLine(refutation_target(), chain.lines[-1].justification),))
        ok, c_chain = proof_of_with_cost(Q, chain, phi)
        rejected, c = proof_of_with_cost(Q, broken, refutation_target())
        assert ok and not rejected
        assert c.lines_scanned == c_chain.lines_scanned + len(broken.lines) - 1


def test_cost_counters_do_not_depend_on_shared_nodes():
    # a proof rebuilt node by node is the same proof, its lines the same
    # objects, so it costs the same
    proofs = [mp_chain(Q, 60, 24)[0], diagonalize(Q, parse_formula("x = 0")).equivalence]
    proofs += [s.proof for s in sample_proofs(30)]
    for proof in proofs:
        copy = Proof(tuple(ProofLine(_fresh(ln.formula), ln.justification) for ln in proof.lines))
        assert all(a.formula is b.formula for a, b in zip(copy.lines, proof.lines))
        assert copy == proof
        ok, c = proof_of_with_cost(Q, proof, proof.conclusion)
        ok_copy, c_copy = proof_of_with_cost(Q, copy, copy.conclusion)
        assert ok and ok_copy
        assert (c.lines, c.symbol_comparisons, c.lines_scanned, c.pair_searches) == (
            c_copy.lines,
            c_copy.symbol_comparisons,
            c_copy.lines_scanned,
            c_copy.pair_searches,
        )


def test_search_handles_stored_free_justifications():
    # verify ignores stored hints entirely: stripping them changes nothing
    for sample in sample_proofs(25):
        stripped = Proof(tuple(ProofLine(l.formula, None) for l in sample.proof.lines))
        assert verify(Q, stripped).ok


def test_delta0_truth_spot_checks():
    rng = random.Random(RNG_SEED + 3)
    seen_true = seen_false = 0
    for _ in range(300):
        phi = random_delta0_sentence(rng)
        v = eval_delta0(Q, phi)
        seen_true += v
        seen_false += not v
    assert seen_true and seen_false  # the generator exercises both verdicts
