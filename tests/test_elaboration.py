"""The search elaborates, the stored check checks.

`verifier.verify` returns, on acceptance, the proof with the justification
its search found for each line.  The stored-justification check must accept
that record on every proof the search accepts, and given it as `found`,
must reach the verdict and the reason it reaches without it, whatever the
written justifications say."""

import dataclasses
import random

import pytest
from test_print_reference import CERTIFY_CHAIN_POINTS

from proofforge import config as cfgmod
from proofforge import suite as suitemod
from proofforge.bench import mp_chain
from proofforge.calculus import (
    AxiomJust,
    BGenJust,
    ComputeJust,
    GenJust,
    LineCheck,
    MPJust,
    Proof,
    ProofLine,
    TheoryAxiomJust,
    check_stored_proof,
)
from proofforge.corpus import derived_theorem_corpus, diagonal_shapes
from proofforge.goedel import diagonalize, standard_theory
from proofforge.syntax import ZERO, Eq, numeral
from proofforge.verifier import proof_of, verify

THEORY = standard_theory()


def _elaborated(proof):
    """The search's record of an accepted proof, checked by the stored check."""
    __tracebackhide__ = True
    check = verify(THEORY, proof)
    assert check == LineCheck(True)
    found = check.proof
    assert [ln.formula for ln in found.lines] == [ln.formula for ln in proof.lines]
    assert all(ln.justification is not None for ln in found.lines)
    assert check_stored_proof(THEORY, found) == LineCheck(True)
    assert check_stored_proof(THEORY, proof, found) == check_stored_proof(THEORY, proof)
    return found


@pytest.fixture(scope="module")
def derived():
    return [s.proof for s in derived_theorem_corpus(THEORY, random.Random(33), 300)]


@pytest.fixture(scope="module")
def certificates():
    return [diagonalize(THEORY, psi).equivalence for psi in diagonal_shapes(THEORY)]


@pytest.fixture(scope="module")
def chains():
    points = [(k, 10 + k % 50) for k in range(10, 201, 10)] + CERTIFY_CHAIN_POINTS
    return [mp_chain(THEORY, k, m)[0] for k, m in points]


def test_the_stored_check_accepts_the_search_s_record_of_derived_proofs(derived):
    assert len(derived) == 300
    for proof in derived:
        _elaborated(proof)


def test_the_stored_check_accepts_the_search_s_record_of_the_certificates(certificates):
    assert len(certificates) == 24
    for proof in certificates:
        _elaborated(proof)


def test_the_stored_check_accepts_the_search_s_record_of_detachment_chains(chains):
    for proof in chains:
        _elaborated(proof)


def test_the_stored_check_accepts_the_search_s_record_of_criterion_2_witnesses(monkeypatch):
    witnesses = []
    real = suitemod.check_witness

    def recording(theory, phi, proof, k):
        witnesses.append(proof)
        return real(theory, phi, proof, k)

    monkeypatch.setattr(suitemod, "check_witness", recording)
    assert suitemod.criterion_2_membership_agreement(cfgmod.RunConfig()).passed
    assert witnesses
    for proof in witnesses:
        _elaborated(proof)


def test_proof_of_passes_the_record_through():
    proof, phi = mp_chain(THEORY, 10, 12)
    assert proof_of(THEORY, proof, phi).proof == verify(THEORY, proof).proof
    assert verify(THEORY, Proof(())).proof is None
    assert proof_of(THEORY, proof, Eq(ZERO, ZERO)).proof is None


def _mutated_justification(rng, proof, found, i):
    """A seeded stand-in for line i's written justification: another line's,
    written or found, a rule citing random lines, or an axiom claim."""
    n = len(proof.lines)
    here = proof.lines[i].justification, found.lines[i].justification
    candidates = [
        rng.choice(proof.lines).justification,
        rng.choice(found.lines).justification,
        MPJust(rng.randrange(n), rng.randrange(n)),
        GenJust(rng.randrange(n), rng.choice("xyz")),
        BGenJust(rng.randrange(n), "x", numeral(rng.randrange(3))),
        ComputeJust(),
        ComputeJust(rng.randrange(5)),
        AxiomJust(rng.choice(("P1", "P2", "P3", "EQREFL", "Q1", "Q2", "IND", "EQSUBST", "BCONGA"))),
        AxiomJust("QAX", index=rng.randrange(1, 9)),
        AxiomJust("EQREFL", term=numeral(rng.randrange(3))),
        TheoryAxiomJust(1),
    ]
    return rng.choice([j for j in candidates if j is not None and j not in here] or [MPJust(n, n)])


def test_a_mutated_written_justification_gets_the_verdict_it_gets_unaided(derived, certificates, chains):
    rng = random.Random(3333)
    verdicts = set()
    for proof in derived[:150] + certificates + chains:
        found = verify(THEORY, proof).proof
        # the written justifications as built, and as the search found them
        for base in (proof, found):
            for _ in range(4):
                i = rng.randrange(len(base.lines))
                lines = list(base.lines)
                lines[i] = dataclasses.replace(lines[i], justification=_mutated_justification(rng, base, found, i))
                q = Proof(tuple(lines))
                unaided = check_stored_proof(THEORY, q)
                assert check_stored_proof(THEORY, q, found) == unaided, (i, lines[i])
                verdicts.add(unaided.ok)
    assert verdicts == {True, False}


def test_a_question_mark_line_takes_the_search_s_justification():
    proof = Proof((ProofLine(Eq(numeral(2), numeral(2))), ProofLine(Eq(ZERO, ZERO))))
    found = verify(THEORY, proof).proof
    assert check_stored_proof(THEORY, proof) == LineCheck(False, "line 1: no stored justification")
    assert check_stored_proof(THEORY, proof, found) == LineCheck(True)
