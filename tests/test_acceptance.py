"""The acceptance gate: each criterion runs in full and must report PASS.

Every test prints the criterion's one-line verdict so the log carries one
pass/fail line per criterion.  Failures keep the measured details attached.
"""

import pytest

from proofforge.config import RunConfig
from proofforge.suite import (
    criterion_1_verifier_scaling,
    criterion_2_membership_agreement,
    criterion_3_soundness,
    criterion_4_fixed_point,
    criterion_5_bounded_consistency,
    criterion_6_regeneration,
    criterion_7_resolution,
    criterion_8_translation,
    criterion_9_witness,
)

CFG = RunConfig()


def run(criterion):
    result = criterion(CFG)
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_1_verifier_cost_scaling():
    r = run(criterion_1_verifier_scaling)
    assert r.details["slope_vs_k"] <= r.details["slope_k_limit"] == 2.2
    assert r.details["slope_vs_m"] <= r.details["slope_m_limit"] == 1.3


def test_criterion_2_membership_agreement():
    r = run(criterion_2_membership_agreement)
    assert r.details["disagreements"] == 0
    assert r.details["queries"] >= 600  # 200 formulas at three exponents


def test_criterion_3_soundness():
    r = run(criterion_3_soundness)
    assert r.details["proofs"] >= 1000
    assert r.details["accepted"] == r.details["proofs"]
    assert r.details["evaluator_disagreements"] == 0


def test_criterion_4_fixed_points():
    r = run(criterion_4_fixed_point)
    assert r.details["shapes"] >= 20
    assert r.details["accepted"] == r.details["shapes"]


def test_criterion_5_bounded_consistency():
    r = run(criterion_5_bounded_consistency)
    assert r.details["monotone"] is True
    assert list(r.details["evaluated"]) == [str(m) for m in range(1, 9)]
    # 0, 0, 0, then the target alone, then 17 * 17 lines `a = b` before it
    assert list(r.details["candidates"].values()) == [0, 0, 0, 1, 1, 1, 1, 290]


def test_criterion_6_regeneration_chain():
    r = run(criterion_6_regeneration)
    assert r.details["pairwise_distinct"] is True
    assert r.details["self_proof_outcomes"] == ["none", "none", "none"]


def test_criterion_7_resolution_layer():
    r = run(criterion_7_resolution)
    assert r.details["false_accepts"] == 0
    assert r.details["invalid_fuzzed"] >= 500


def test_criterion_8_translation_adequacy():
    r = run(criterion_8_translation)
    assert r.details["disagreements"] == 0


def test_criterion_9_language_witness():
    r = run(criterion_9_witness)
    assert r.details["eval_true"] is True
    assert r.details["level_1"] == {"member": False, "definitive": True, "outcome": "none"}
    assert r.details["member_at_level"] >= 2
    rows = r.details["goedel_sentences"]
    assert [(row["m"], row["tokens"], row["candidates"], row["eval_true"]) for row in rows] == [
        (121, 120, 1, True),
        (122, 120, 1, True),
        (123, 120, 1, True),
        (124, 120, 290, True),
    ]
