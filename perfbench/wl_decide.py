"""decide: the path of `forge member`, `forge con` and `forge regen`.

Loads bounded and goedel evaluation, not derivations or propositional.  The
evaluator runs two ways (one huge prft sweep per con job, many tiny random
sentences) and so does the search (`found` outcomes that end early,
exhaustive `none` outcomes).
"""

from __future__ import annotations

import random

from harness import Job, Outcome, Plan, Tracer

from proofforge import reference
from proofforge.bounded import SearchLimits, axiom_pool, enumerate_proofs, l_k_membership, regeneration_chain
from proofforge.calculus import EvalBudget
from proofforge.corpus import membership_formula_corpus, random_delta0_sentence
from proofforge.goedel import con_bounded, eval_delta0, refutation_target, standard_theory
from proofforge.syntax import Eq, Implies, Not, formula_size, print_formula
from proofforge.verifier import check_witness

WHY = (
    "Loads bounded search and goedel evaluation; exercises the axiom pools, the "
    "exhaustive search and the prft sweep behind the consistency sentences."
)
KINDS = {
    "member": "l_k_membership for k=1..3 on membership_formula_corpus, the same (shape, size) cells "
    "for every seed, with the acceptance suite's criterion-2 limits",
    "refute": "enumerate_proofs of !(0 = 0) at budgets 8..10: exhaustive `none` outcomes",
    "regen": "regeneration_chain(3, 8): three self-searches over three theories",
    "con": "eval_delta0(con_bounded(m)) for m=1..3 in binary and unary numerals: one prft sweep "
    "of up to 1.3M evaluator operations",
    "sentences": "batches of 100 random_delta0_sentence, oracle reference.sentence_truth: many tiny evaluations",
}
LIMIT_S = 30.0
ROUND_S = 4.5
PER_SHAPE = 5
K_LEVELS = (1, 2, 3)
REFUTE_BUDGETS = (8, 9, 10)
CON_M = (1, 2, 3)
CON_MODES = ("binary", "unary")
# Each batch averages 100 random sentences, so its time barely depends on
# the seed.  160 batches put the median job among them, and the 90th
# percentile inside the cluster of ~55 ms membership queries instead of on
# its edge with the ~80 ms ones.
SENTENCE_BATCHES = 160
BATCH = 100
# Criterion 2 of the acceptance suite.
LIMITS = SearchLimits(pool_cap=600_000, node_cap=4000)
DESK_CAP = 24
POOL_SIZES = (3, 4, 5)  # size 6 exceeds the pool cap


def _shape(phi) -> str:
    """The corpus generator's formula kind, read off the formula."""
    match phi:
        case Implies(a, b):
            return "taut" if a == b else "imp"
        case Not(_):
            return "neg"
        case Eq(a, b) if a == b:
            return "eqrefl"
        case Eq(_, _):
            return "true_eq" if reference.sentence_truth(phi) else "false_eq"
    raise ValueError(f"unexpected corpus formula {print_formula(phi)}")


def _member_job(theory, phi, k: int, truth: bool) -> Job:
    def run(tr: Tracer) -> Outcome:
        r = tr.call("bounded.l_k_membership", l_k_membership, theory, phi, k, desk_cap=DESK_CAP, limits=LIMITS)
        return Outcome((r.member, r.outcome), r.definitive, {}, r)

    # A member must carry a witness that passes check_witness and be true by
    # reference.sentence_truth; a false formula is never a member.
    def check(o: Outcome) -> str | None:
        r = o.payload
        if r.definitive != (r.member is not None):
            return f"definitive={r.definitive} with member={r.member}"
        if r.member is True:
            if not truth:
                return "a false formula was declared a member"
            if r.proof is None or not check_witness(theory, phi, r.proof, k):
                return "the witness fails check_witness"
        return None

    return Job(f"member[k={k}] {print_formula(phi)}", "member", run, check)


def _refute_job(theory, budget: int, target_truth: bool) -> Job:
    target = refutation_target()

    def run(tr: Tracer) -> Outcome:
        r = tr.call("bounded.enumerate_proofs", enumerate_proofs, theory, target, budget)
        return Outcome(r.outcome, r.definitive, {"bounded.nodes": r.nodes})

    def check(o: Outcome) -> str | None:
        if target_truth:
            return "the refutation target is not false"
        if o.verdict != "none":
            return f"search for a proof of a false sentence ended '{o.verdict}', expected 'none'"
        return None

    return Job(f"refute[budget={budget}]", "refute", run, check)


def _regen_job() -> Job:
    def run(tr: Tracer) -> Outcome:
        levels = tr.call("bounded.regeneration_chain", regeneration_chain, 3, 8)
        verdict = tuple((lv.self_search.outcome, lv.self_search.definitive, lv.next_level_one_line_ok) for lv in levels)
        codes = len({lv.con_code for lv in levels})
        return Outcome((verdict, codes), True, {"bounded.nodes": sum(lv.self_search.nodes for lv in levels)})

    def check(o: Outcome) -> str | None:
        expected = (tuple(("none", True, True) for _ in range(3)), 3)
        return None if o.verdict == expected else f"levels {o.verdict}, expected {expected}"

    return Job("regen[depth=3,m=8]", "regen", run, check)


def _con_job(theory, m: int, mode: str) -> Job:
    sentence = con_bounded(theory, m, numeral_mode=mode)

    def run(tr: Tracer) -> Outcome:
        budget = EvalBudget(10**10)
        value = tr.call("goedel.eval_delta0", eval_delta0, theory, sentence, budget=budget)
        return Outcome(value, True, {"goedel.eval_ops": budget.used})

    # Known answer: the base theory has no refutation of 0 = 0 of at most m
    # tokens, so con_bounded(m) is true.
    def check(o: Outcome) -> str | None:
        return None if o.verdict is True else f"con_bounded({m}, {mode}) evaluated false"

    return Job(f"con[m={m},{mode}]", "con", run, check)


def _sentences_job(theory, index: int, batch: list, truths: list[bool]) -> Job:
    def run(tr: Tracer) -> Outcome:
        values = []
        ops = 0
        for s in batch:
            budget = EvalBudget()
            values.append(tr.call("goedel.eval_delta0", eval_delta0, theory, s, budget=budget))
            ops += budget.used
        return Outcome(tuple(values), True, {"goedel.eval_ops": ops})

    def check(o: Outcome) -> str | None:
        wrong = sum(1 for v, t in zip(o.verdict, truths) if v != t)
        return f"{wrong} of {len(truths)} sentences disagree with reference.sentence_truth" if wrong else None

    return Job(f"sentences[{index}]", "sentences", run, check, "; ".join(print_formula(s) for s in batch))


def _warm_pools(theory) -> int:
    return sum(len(axiom_pool(theory, s, LIMITS.pool_cap)) for s in POOL_SIZES)


def setup(seed: int, tr: Tracer) -> Plan:
    theory = standard_theory()
    rng = random.Random(seed)

    def generate():
        pool = membership_formula_corpus(rng, 2000)
        batches = [[random_delta0_sentence(rng) for _ in range(BATCH)] for _ in range(SENTENCE_BATCHES)]
        return pool, batches

    pool, batches = tr.call("corpus.generate", generate)

    # Whether a query comes back definitive depends on the formula's shape
    # and size, so every seed takes the same (shape, size) cells: for each
    # shape, its PER_SHAPE smallest sizes, taken in turn until the shape has
    # PER_SHAPE formulas.
    def oracle():
        cells: dict[tuple[str, int], list] = {}
        for phi in pool:
            cells.setdefault((_shape(phi), formula_size(phi)), []).append(phi)
        picked = []
        for shape in sorted({s for s, _ in cells}):
            sizes = sorted(size for s, size in cells if s == shape)[:PER_SHAPE]
            picked += [cells[shape, sizes[i % len(sizes)]][i // len(sizes)] for i in range(PER_SHAPE)]
        return (
            picked,
            [reference.sentence_truth(phi) for phi in picked],
            [[reference.sentence_truth(s) for s in b] for b in batches],
            reference.sentence_truth(refutation_target()),
        )

    formulas, truths, batch_truths, target_truth = tr.call("reference.oracle", oracle)

    members = [_member_job(theory, phi, k, t) for phi, t in zip(formulas, truths) for k in K_LEVELS]
    others = (
        [_refute_job(theory, b, target_truth) for b in REFUTE_BUDGETS]
        + [_regen_job()]
        + [_con_job(theory, m, mode) for m in CON_M for mode in CON_MODES]
        + [_sentences_job(theory, i, b, t) for i, (b, t) in enumerate(zip(batches, batch_truths))]
    )
    # Spread the other jobs evenly through the membership queries.
    jobs: list[Job] = []
    step = len(members) / len(others)
    for i, job in enumerate(others):
        jobs += members[int(i * step) : int((i + 1) * step)]
        jobs.append(job)

    pool_lines = tr.call("bounded.pool_warmup", _warm_pools, theory)
    smallest = min(formulas, key=lambda phi: len(print_formula(phi)))
    warmup = [
        _member_job(theory, smallest, 1, truths[formulas.index(smallest)]),
        _refute_job(theory, REFUTE_BUDGETS[0], target_truth),
        _regen_job(),
        _con_job(theory, 1, "binary"),
        _sentences_job(theory, 0, batches[0], batch_truths[0]),
    ]
    info = {"why": WHY, "kinds": KINDS, "bounded.pool_lines": pool_lines}
    return Plan(jobs, warmup, LIMIT_S, ROUND_S, info, decision_kinds=("member",))
