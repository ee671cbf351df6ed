"""proofforge: a desk-scale laboratory for proof length in arithmetic.

An instrumented checker for Hilbert-style proofs in first-order arithmetic
(its COMPUTE lines are not yet polynomially bounded), numeric coding with a
diagonalization engine, size-bounded provability and consistency
statements, exhaustive proof search at small sizes, and a propositional
layer (resolution and truth tables) with proof-length measurement.
"""

from .calculus import (
    DefExtension,
    EvalBudget,
    EvalBudgetExceeded,
    Proof,
    ProofLine,
    TheorySpec,
    check_stored_proof,
    eval_term_in,
    parse_proof_text,
    print_proof_text,
    proof_size,
    robinson_axioms,
)
from .goedel import (
    DiagonalResult,
    binary_numeral,
    con_bounded,
    decode_formula,
    decode_proof,
    decode_term,
    diagonalize,
    encode_formula,
    encode_proof,
    encode_term,
    eval_delta0,
    extend_with_axiom,
    goedel_sentence_bounded,
    induction_theory,
    provability_formula,
    standard_theory,
)
from .syntax import (
    Formula,
    Term,
    formula_size,
    free_variables,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    substitute,
    term_size,
)
from .verifier import CostReport, check_witness, proof_of, proof_of_with_cost, verify

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "DefExtension",
    "DiagonalResult",
    "EvalBudget",
    "EvalBudgetExceeded",
    "Formula",
    "Proof",
    "ProofLine",
    "Term",
    "TheorySpec",
    "binary_numeral",
    "check_stored_proof",
    "check_witness",
    "con_bounded",
    "decode_formula",
    "decode_proof",
    "decode_term",
    "diagonalize",
    "encode_formula",
    "encode_proof",
    "encode_term",
    "eval_delta0",
    "eval_term_in",
    "extend_with_axiom",
    "formula_size",
    "free_variables",
    "goedel_sentence_bounded",
    "induction_theory",
    "parse_formula",
    "parse_proof_text",
    "parse_term",
    "print_formula",
    "print_proof_text",
    "print_term",
    "proof_of",
    "proof_of_with_cost",
    "proof_size",
    "provability_formula",
    "robinson_axioms",
    "standard_theory",
    "substitute",
    "term_size",
    "verify",
    "__version__",
]
