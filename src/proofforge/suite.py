"""The acceptance suite: nine measured criteria, one report.

Each criterion is a standalone callable returning a CriterionResult whose
details record the actual numbers (counts, slopes, sizes, runtimes).  The
JSON report is schema-versioned and canonically ordered so identical
configurations produce identical bytes (modulo wall-clock fields, which the
deterministic flag zeroes).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, replace

from . import config as cfgmod
from .bench import chain_sweep
from .calculus import EvalBudget
from .bounded import (
    ChainLevel,
    SearchLimits,
    chain_holds,
    enumerate_proofs,
    l_k_membership,
    regeneration_chain,
)
from .corpus import (
    derived_theorem_corpus,
    diagonal_shapes,
    membership_formula_corpus,
    mutate_resolution_proof,
    random_clause_set,
    random_delta0_sentence,
    random_delta0_single_var,
)
from .goedel import (
    BASE,
    THEORIES,
    con_bounded,
    diagonalize,
    encode_formula,
    eval_delta0,
    goedel_sentence_bounded,
    proof_candidates,
    refutation_target,
)
from .propositional import (
    ClauseSet,
    Input,
    Resolve,
    ResolutionProof,
    brute_force_satisfiable,
    check_resolution,
    dp_refutation,
    is_tautology_bruteforce,
    lit,
    translate_delta0,
)
from .reference import sentence_truth
from .syntax import formula_size, parse_formula, print_formula
from .verifier import check_witness, proof_of, verify

SCHEMA = "forge-report/1"


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        return f"criterion {self.cid} ({self.name}): {'PASS' if self.passed else 'FAIL'}"


def search_limits(cfg: cfgmod.RunConfig) -> SearchLimits:
    """The configured caps; every search of the suite and of `forge` runs
    under them (criterion 2 lowers its node cap further)."""
    return SearchLimits(pool_cap=cfg.pool_cap, node_cap=cfg.node_cap)


def chain_levels(cfg: cfgmod.RunConfig, depth: int, m: int) -> list[ChainLevel]:
    """The regeneration chain of `forge regen`, `forge demo` and criterion 6."""
    return regeneration_chain(depth=depth, m=m, limits=search_limits(cfg))


# -- 1: checker cost scaling ------------------------------------------------


def criterion_1_verifier_scaling(cfg: cfgmod.RunConfig) -> CriterionResult:
    t0 = time.monotonic()
    sweep = chain_sweep(THEORIES[cfg.theory](), cfg.bench_k, cfg.bench_m, cfg.fixed_k, cfg.fixed_m)
    for key, slope in (("bench_k", sweep.slope_k), ("bench_m", sweep.slope_m)):
        if slope is None:
            raise ValueError(f"{key} = {getattr(cfg, key)!r} has fewer than two distinct points to fit a slope over")
    slope_k, slope_m = sweep.slope_k, sweep.slope_m
    elapsed = time.monotonic() - t0
    passed = slope_k <= 2.2 and slope_m <= 1.3 and elapsed < 120
    return CriterionResult(
        1,
        "checker cost scaling",
        passed,
        {
            "slope_vs_k": round(slope_k, 4),
            "slope_vs_m": round(slope_m, 4),
            "slope_k_limit": 2.2,
            "slope_m_limit": 1.3,
            "k_points": [[p.k, p.cost.symbol_comparisons] for p in sweep.k_points],
            "m_points": [[p.m, p.cost.symbol_comparisons] for p in sweep.m_points],
            "seconds": 0.0 if cfg.deterministic else round(elapsed, 2),
        },
    )


# -- 2: size-class membership and its witnesses -----------------------------


def criterion_2_membership_agreement(cfg: cfgmod.RunConfig) -> CriterionResult:
    th = THEORIES[cfg.theory]()
    rng = random.Random(cfg.seed)
    formulas = membership_formula_corpus(rng, 200)
    limits = replace(search_limits(cfg), node_cap=min(cfg.node_cap, 4000))
    total = definitive = disagreements = 0
    for phi in formulas:
        for k in (1, 2, 3):
            total += 1
            mem = l_k_membership(th, phi, k, desk_cap=cfg.desk_cap, limits=limits)
            if not mem.definitive:
                continue
            definitive += 1
            # a member's witness must pass the NP relation at its level; an
            # "out" verdict has no check independent of the search yet
            if mem.member and not (mem.proof is not None and check_witness(th, phi, mem.proof, k)):
                disagreements += 1
    passed = disagreements == 0 and definitive > 0
    return CriterionResult(
        2,
        "membership agreement",
        passed,
        {"queries": total, "definitive": definitive, "disagreements": disagreements},
    )


# -- 3: soundness of accepted proofs ----------------------------------------


def criterion_3_soundness(cfg: cfgmod.RunConfig) -> CriterionResult:
    th = THEORIES[cfg.theory]()
    rng = random.Random(cfg.seed + 1)
    samples = derived_theorem_corpus(th, rng, 1000)
    accepted = true_conclusions = 0
    for s in samples:
        if verify(th, s.proof).ok:
            accepted += 1
            if eval_delta0(th, s.formula):
                true_conclusions += 1
    eval_disagreements = 0
    for _ in range(10_000):
        sent = random_delta0_sentence(rng, depth=3, bound_cap=3)
        if eval_delta0(th, sent) != sentence_truth(sent):
            eval_disagreements += 1
    passed = accepted == len(samples) and true_conclusions == accepted and eval_disagreements == 0
    return CriterionResult(
        3,
        "soundness of accepted proofs",
        passed,
        {
            "proofs": len(samples),
            "accepted": accepted,
            "true_conclusions": true_conclusions,
            "evaluator_cross_checks": 10_000,
            "evaluator_disagreements": eval_disagreements,
        },
    )


# -- 4: fixed-point certificates ---------------------------------------------


def criterion_4_fixed_point(cfg: cfgmod.RunConfig) -> CriterionResult:
    th = THEORIES[cfg.theory]()
    shapes = diagonal_shapes(th)
    sizes: list[list[int]] = []
    accepted = 0
    for psi in shapes:
        result = diagonalize(th, psi)
        if proof_of(th, result.equivalence, result.biconditional).ok:
            accepted += 1
        sizes.append(
            [formula_size(psi), formula_size(result.sentence), len(result.equivalence.lines)]
        )
    passed = accepted == len(shapes) and len(shapes) >= 20
    return CriterionResult(
        4,
        "fixed-point certificates",
        passed,
        {
            "shapes": len(shapes),
            "accepted": accepted,
            "sizes": sizes,  # [psi size, fixed-point size, equivalence proof lines]
        },
    )


# -- 5: bounded consistency ---------------------------------------------------


def criterion_5_bounded_consistency(cfg: cfgmod.RunConfig) -> CriterionResult:
    th = THEORIES[cfg.theory]()
    enum_budget = 10
    refutation = enumerate_proofs(th, refutation_target(), enum_budget, limits=search_limits(cfg))
    enum_ok = refutation.outcome == "none" and refutation.definitive
    eval_cap = 8
    # the sweep visits only the codes that end in the refutation target:
    # none below m = 4, the target itself up to m = 7, and at m = 8 also
    # every 3-token line followed by a separator
    truths = {
        m: bool(eval_delta0(th, con_bounded(th, m, numeral_mode=cfg.numeral_mode), budget=EvalBudget(10**10)))
        for m in range(1, eval_cap + 1)
    }
    target = encode_formula(refutation_target())
    candidates = {m: sum(1 for _ in proof_candidates(target, BASE**m - 1)) for m in truths}
    all_true = all(truths.values())
    # downward monotonicity: consistency at m forces consistency below m
    monotone = all(truths[m] or not truths[m + 1] for m in range(1, eval_cap))
    sizes = {m: formula_size(con_bounded(th, m, numeral_mode="binary")) for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)}
    c, c0 = 1.0, 31.0
    growth_ok = all(sizes[m] <= c * math.log2(m) + c0 for m in sizes)
    passed = enum_ok and all_true and monotone and growth_ok
    return CriterionResult(
        5,
        "bounded consistency",
        passed,
        {
            "enumeration_budget": enum_budget,
            "enumeration_outcome": refutation.outcome,
            "enumeration_nodes": refutation.nodes,
            "evaluated": {str(m): truths[m] for m in truths},
            "candidates": {str(m): candidates[m] for m in candidates},
            "monotone": monotone,
            "sizes": {str(m): sizes[m] for m in sizes},
            "growth_bound": f"size <= {c}*log2(m) + {c0}",
        },
    )


# -- 6: regeneration chain -----------------------------------------------------


def criterion_6_regeneration(cfg: cfgmod.RunConfig) -> CriterionResult:
    levels = chain_levels(cfg, 3, 8)
    return CriterionResult(
        6,
        "regeneration chain",
        chain_holds(levels),
        {
            "levels": [lv.theory_name for lv in levels],
            "con_sizes": [lv.con_size for lv in levels],
            "pairwise_distinct": len({lv.con_code for lv in levels}) == len(levels),
            "one_line_accepted": all(lv.next_level_one_line_ok for lv in levels),
            "self_proof_outcomes": [lv.self_search.outcome for lv in levels],
        },
    )


# -- 7: resolution layer -------------------------------------------------------


def _replay_resolution(cs: ClauseSet, proof: ResolutionProof) -> bool:
    """Independent little replay used to classify fuzz mutants."""
    derived: list[frozenset] = []
    for s in proof.steps:
        if isinstance(s, Input):
            if not 0 <= s.index < len(cs.clauses):
                return False
            derived.append(cs.clauses[s.index])
        elif isinstance(s, Resolve):
            if not (0 <= s.left < len(derived) and 0 <= s.right < len(derived)):
                return False
            p, n = lit(s.pivot, True), lit(s.pivot, False)
            if p not in derived[s.left] or n not in derived[s.right]:
                return False
            derived.append((derived[s.left] - {p}) | (derived[s.right] - {n}))
        else:
            return False
    return bool(derived) and derived[-1] == frozenset()


def criterion_7_resolution(cfg: cfgmod.RunConfig) -> CriterionResult:
    rng = random.Random(cfg.seed + 2)
    canonical_cs = ClauseSet((frozenset({1}), frozenset({-1})), 1)
    canonical = ResolutionProof((Input(0), Input(1), Resolve(0, 1, 0)))
    php_cs = ClauseSet((frozenset({1}), frozenset({2}), frozenset({-1, -2})), 2)
    php = ResolutionProof((Input(0), Input(1), Input(2), Resolve(0, 2, 0), Resolve(1, 3, 1)))
    hand_ok = check_resolution(canonical_cs, canonical).ok and check_resolution(php_cs, php).ok

    invalid_seen = false_accepts = 0
    bases = [(canonical_cs, canonical), (php_cs, php)]
    while invalid_seen < 500:
        cs, base = bases[invalid_seen % len(bases)]
        mutant = mutate_resolution_proof(rng, base)
        if _replay_resolution(cs, mutant):
            continue  # mutation happened to stay valid; not an invalid sample
        invalid_seen += 1
        if check_resolution(cs, mutant).ok:
            false_accepts += 1

    violations = 0
    sets_checked = 60
    for _ in range(sets_checked):
        cs = random_clause_set(rng, max_vars=6, max_clauses=8)
        proof = dp_refutation(cs)
        sat = brute_force_satisfiable(cs)
        if proof is None:
            if not sat:
                violations += 1
        else:
            if not check_resolution(cs, proof).ok or sat:
                violations += 1
    passed = hand_ok and false_accepts == 0 and violations == 0
    return CriterionResult(
        7,
        "resolution layer",
        passed,
        {
            "hand_built_accepted": hand_ok,
            "invalid_fuzzed": invalid_seen,
            "false_accepts": false_accepts,
            "clause_sets_cross_checked": sets_checked,
            "unsat_cross_check_violations": violations,
        },
    )


# -- 8: translation adequacy -----------------------------------------------------


def criterion_8_translation(cfg: cfgmod.RunConfig) -> CriterionResult:
    th = THEORIES[cfg.theory]()
    rng = random.Random(cfg.seed + 3)
    t0 = time.monotonic()
    formulas = [random_delta0_single_var(rng) for _ in range(200)]
    checks = disagreements = 0
    for A in formulas:
        for n in range(1, 7):
            checks += 1
            taut = is_tautology_bruteforce(translate_delta0(A, "x", n))
            holds = all(eval_delta0(th, A, env={"x": i}) for i in range(n + 1))
            if taut != holds:
                disagreements += 1
    elapsed = time.monotonic() - t0
    passed = disagreements == 0 and elapsed < 300
    return CriterionResult(
        8,
        "translation adequacy",
        passed,
        {
            "formulas": len(formulas),
            "checks": checks,
            "disagreements": disagreements,
            "seconds": 0.0 if cfg.deterministic else round(elapsed, 2),
        },
    )


# -- 9: true but not cheaply provable ----------------------------------------------


def criterion_9_witness(cfg: cfgmod.RunConfig) -> CriterionResult:
    th = THEORIES[cfg.theory]()
    phi = parse_formula("0 = 0 -> 0 = 0")
    truth = eval_delta0(th, phi)
    limits = search_limits(cfg)
    m1 = l_k_membership(th, phi, 1, desk_cap=cfg.desk_cap, limits=limits)
    out_of_l1 = m1.member is False and m1.definitive
    in_level = None
    witness_lines = None
    for k in (2, 3):
        mk = l_k_membership(th, phi, k, desk_cap=cfg.desk_cap, limits=limits)
        if mk.member is True:
            in_level = k
            witness_lines = len(mk.proof.lines) if mk.proof is not None else None
            break
    # G_m says "no proof of me has at most m tokens"; it has 120 tokens for
    # m = 64..127, so these m leave room for a separator and 0..3 tokens of
    # lines before it
    goedel_rows = []
    for m in range(121, 125):
        g = goedel_sentence_bounded(th, m)
        goedel_rows.append(
            {
                "m": m,
                "tokens": formula_size(g.sentence),
                "candidates": sum(1 for _ in proof_candidates(g.code, BASE**m - 1)),
                "eval_true": eval_delta0(th, g.sentence, budget=EvalBudget(10**9)),
            }
        )
    passed = truth and out_of_l1 and in_level is not None and all(row["eval_true"] for row in goedel_rows)
    return CriterionResult(
        9,
        "true but not cheaply provable",
        passed,
        {
            "sentence": print_formula(phi),
            "eval_true": truth,
            "level_1": {"member": m1.member, "definitive": m1.definitive, "outcome": m1.outcome},
            "member_at_level": in_level,
            "witness_proof_lines": witness_lines,
            "goedel_sentences": goedel_rows,
        },
    )


ALL_CRITERIA = (
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


def run_suite(cfg: cfgmod.RunConfig) -> dict:
    """Run every criterion in canonical order, printing one line per result."""
    cfg.validate()
    results = []
    for fn in ALL_CRITERIA:
        r = fn(cfg)
        print(r.line())
        results.append(r)
    return {
        "schema": SCHEMA,
        "config": {k: v for k, v in sorted(vars(cfg).items())},
        "passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
