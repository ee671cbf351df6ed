"""The acceptance gate: each criterion runs in full and must report PASS.

The criteria run once, in the session's deterministic suite run (the
`suite_run` fixture); each test reads its criterion's entry in its report.
Every test prints the criterion's one-line verdict so the log carries one
pass/fail line per criterion.  Failures keep the measured details attached.
"""

import json

import pytest


@pytest.fixture()
def criterion(suite_run):
    report = json.loads(suite_run[1])

    def entry(cid):
        c = report["criteria"][cid - 1]
        assert c["id"] == cid
        print(f"criterion {cid} ({c['name']}): {'PASS' if c['passed'] else 'FAIL'}")
        assert c["passed"], c["details"]
        return c["details"]

    return entry


def test_criterion_1_verifier_cost_scaling(criterion):
    d = criterion(1)
    assert d["slope_vs_k"] <= d["slope_k_limit"] == 2.2
    assert d["slope_vs_m"] <= d["slope_m_limit"] == 1.3


def test_criterion_2_membership_agreement(criterion):
    d = criterion(2)
    assert d["disagreements"] == 0
    assert d["queries"] >= 600  # 200 formulas at three exponents


def test_criterion_3_soundness(criterion):
    d = criterion(3)
    assert d["proofs"] >= 1000
    assert d["accepted"] == d["proofs"]
    assert d["evaluator_disagreements"] == 0


def test_criterion_4_fixed_points(criterion):
    d = criterion(4)
    assert d["shapes"] >= 20
    assert d["accepted"] == d["shapes"]


def test_criterion_5_bounded_consistency(criterion):
    d = criterion(5)
    assert d["monotone"] is True
    assert list(d["evaluated"]) == [str(m) for m in range(1, 9)]
    # 0, 0, 0, then the target alone, then 17 * 17 lines `a = b` before it
    assert list(d["candidates"].values()) == [0, 0, 0, 1, 1, 1, 1, 290]


def test_criterion_6_regeneration_chain(criterion):
    d = criterion(6)
    assert d["pairwise_distinct"] is True
    assert d["self_proof_outcomes"] == ["none", "none", "none"]


def test_criterion_7_resolution_layer(criterion):
    d = criterion(7)
    assert d["false_accepts"] == 0
    assert d["invalid_fuzzed"] >= 500


def test_criterion_8_translation_adequacy(criterion):
    d = criterion(8)
    assert d["disagreements"] == 0


def test_criterion_9_language_witness(criterion):
    d = criterion(9)
    assert d["eval_true"] is True
    assert d["level_1"] == {"member": False, "definitive": True, "outcome": "none"}
    assert d["member_at_level"] >= 2
    rows = d["goedel_sentences"]
    assert [(row["m"], row["tokens"], row["candidates"], row["eval_true"]) for row in rows] == [
        (121, 120, 1, True),
        (122, 120, 1, True),
        (123, 120, 1, True),
        (124, 120, 290, True),
    ]
