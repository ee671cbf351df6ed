"""Search-based proof verification and the NP witness-checking relation.

`proof_of` treats a proof as a bare sequence of formulas: a line is good if
*some* justification exists for it — an axiom-schema instance, a theory
axiom, modus ponens from two earlier lines, or (bounded) generalization of
an earlier line.  No annotations are consulted.  The search elaborates: an
accepted proof comes back in `LineCheck.proof`, each line carrying the first
justification found for it, which `calculus.check_stored_proof` accepts and,
given it as `found`, reads instead of checking a line that agrees with it.

Per line the search is calculus's, the one the exhaustive proof search
uses: find_axiom_justification (each schema matcher for the line's root
class, then the theory's axioms) and then a lookup in a `LineIndex` of the
preceding lines, keyed by formula.

`proof_of_with_cost` reports the deterministic work counters; wall time is
measured separately and carries no determinism guarantee.
`lines_scanned` and `pair_searches` are positions of a scan (see `Cost`).
`symbol_comparisons` counts syntax nodes compared: `syntax.equal` compares
two trees node by node in a right-first preorder (the consequent before
the antecedent, the right operand before the left) until the first
mismatch, which is counted too.  The count is the walk's, but the walk is
mostly not taken.  The index compares on each hit of its dicts and
counts what `equal` counts.  Equal nodes are one object (see `syntax`),
however the proof was built, so a pair of equal parts costs its cached node
count without a walk, and a walk descends only into parts that differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .calculus import Cost, LineCheck, LineIndex, Proof, ProofLine, TheorySpec, find_axiom_justification, proof_size
from .syntax import Formula, equal, formula_size


@dataclass(frozen=True)
class CostReport:
    lines: int
    symbol_comparisons: int
    lines_scanned: int
    pair_searches: int
    wall_ns: int


def verify(theory: TheorySpec, proof: Proof, cost: Cost | None = None) -> LineCheck:
    """Every line justifiable by search?  Empty proofs are rejected; a
    rejection names the first line with no justification, an acceptance
    carries the elaborated proof.  Work is counted into `cost` if given."""
    if not proof.lines:
        return LineCheck(False, "empty proof")
    index = LineIndex()
    found = []
    for i, ln in enumerate(proof.lines):
        f = ln.formula
        just = find_axiom_justification(theory, f, cost) or index.justify(f, cost)
        if just is None:
            return LineCheck(False, f"line {i + 1}: no justification found")
        found.append(ProofLine(f, just))
        index.add(f)
    return LineCheck(True, proof=Proof(tuple(found)))


def proof_of(theory: TheorySpec, proof: Proof, phi: Formula, cost: Cost | None = None) -> LineCheck:
    """The checking relation: proof is valid under theory and concludes phi
    (an empty proof is rejected by verify).  Work, the comparison of the
    conclusion with phi included, is counted into `cost` when one is given."""
    if proof.lines and not equal(proof.conclusion, phi, cost):
        return LineCheck(False, "conclusion differs from the target formula")
    return verify(theory, proof, cost)


def proof_of_with_cost(theory: TheorySpec, proof: Proof, phi: Formula) -> tuple[bool, CostReport]:
    cost = Cost()
    t0 = time.perf_counter_ns()
    ok = proof_of(theory, proof, phi, cost).ok
    wall = time.perf_counter_ns() - t0
    return ok, CostReport(
        lines=len(proof.lines),
        symbol_comparisons=cost.symbol_comparisons,
        lines_scanned=cost.lines_scanned,
        pair_searches=cost.pair_searches,
        wall_ns=wall,
    )


def check_witness(theory: TheorySpec, phi: Formula, proof: Proof, k: int) -> bool:
    """The NP relation behind the size-bounded provability language:

    accept iff size(proof) <= size(phi)**k and proof_of(theory, proof, phi).
    """
    if k < 1:
        raise ValueError("the polynomial exponent k must be >= 1")
    size = proof_size(proof)
    return size <= power_capped(formula_size(phi), k, size) and proof_of(theory, proof, phi).ok


def power_capped(base: int, k: int, cap: int) -> int:
    """base ** k if that is at most cap, else cap + 1.  The product is
    multiplied only up to the cap, so any k answers at once (base >= 2)."""
    p = 1
    for _ in range(k):
        p *= base
        if p > cap:
            return cap + 1
    return p
