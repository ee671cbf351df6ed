"""propositional: the path of `forge prop translate/taut/check/sp/psim`.

Loads the propositional layer and almost nothing else: Delta0 translation,
numpy brute force, Tseitin negation clauses, Davis-Putnam refutations,
resolution checking, minimal-refutation search and p-simulation.
"""

from __future__ import annotations

import random

from harness import Job, Outcome, Plan, Tracer

from proofforge import propositional as prop
from proofforge import reference
from proofforge.corpus import random_delta0_single_var
from proofforge.syntax import formula_size, numeral, parse_formula, print_formula, substitute

WHY = (
    "Loads the propositional layer only; its kernels (translation, brute force, "
    "Davis-Putnam, resolution checking, s_p search) share no code with the first-order verifier."
)
KINDS = {
    "translate": "translate_delta0 + is_tautology_bruteforce for n=1..6 on batches of four "
    "random_delta0_single_var formulas with the same formula sizes for every seed, oracle "
    "reference.sentence_truth at each value 0..n",
    "cnf": "random 3-CNF, 8..12 vars, 5 clauses per var, two satisfiable and two unsatisfiable per var "
    "count, drawn once from a fixed seed; the run seed flips variable polarities and shuffles clauses: "
    "dp_refutation + check_resolution, a truncated refutation must be rejected, oracle brute_force_satisfiable",
    "s_p": "negation_clauses + dp_refutation + check_resolution + resolution_system().s_p at cap 13 on "
    "fixed 2-variable tautologies: the minimal-refutation search",
    "psim": "p_simulation_check table->resolution on x = x at n=1,2",
}
LIMIT_S = 5.0
ROUND_S = 4.5
# A translate job takes TRANSLATE_BATCH formulas through every n: one
# formula at one n takes 0.1-0.6 ms, too short to time steadily, and its
# cost varies with the formula drawn.  72 batches make a round of 100 jobs.
TRANSLATE_BATCHES = 72
TRANSLATE_BATCH = 4
TRANSLATE_N = range(1, 7)
CNF_VARS = range(8, 13)
CNF_PAIRS = 2  # per var count: this many satisfiable and this many unsatisfiable
CLAUSES_PER_VAR = 5
# DP time over random 12-variable instances has a coefficient of variation
# near 1 (0.04-2.3 s on one 2-core host), so drawing new instances per seed
# would swing a run's total time by 10-20%.  The instances are drawn once
# from this seed; a run's seed only renames them (polarity flips and clause
# order), which changes the input and its proofs but not the elimination work.
# The same seed fixes the size profile of the translated formulas.
BASE_SEED = 2026
SP_CAP = 13
SP_TAUTOLOGIES = (
    "x0 -> (x1 -> x0)",
    "((x0 -> x1) -> x0) -> x0",
    "(x0 & x1) -> x0",
    "(x0 & (x0 -> x1)) -> x1",
    "(x0 -> x1) -> (!x1 -> !x0)",
    "(x0 | x1) -> (x1 | x0)",
)
PSIM_N = (1, 2)
# Known defect: dp_refutation on the n=3 instance (27 vars, 70 clauses) runs
# for more than 400 s.  It runs once per run after the window, under the
# time limit, and its outcome is reported by name.
PSIM_PROBE_N = 3


def _random_3cnf(rng: random.Random, n_vars: int) -> prop.ClauseSet:
    clauses = []
    for _ in range(CLAUSES_PER_VAR * n_vars):
        vs = rng.sample(range(n_vars), 3)
        clauses.append(frozenset((v + 1) if rng.random() < 0.5 else -(v + 1) for v in vs))
    return prop.ClauseSet(tuple(clauses), n_vars)


def _renamed(rng: random.Random, cs: prop.ClauseSet) -> prop.ClauseSet:
    flip = [rng.random() < 0.5 for _ in range(cs.n_vars)]
    clauses = [frozenset(-l if flip[abs(l) - 1] else l for l in c) for c in cs.clauses]
    rng.shuffle(clauses)
    return prop.ClauseSet(tuple(clauses), cs.n_vars)


def _same_sizes(rng: random.Random, count: int) -> list:
    """count random_delta0_single_var formulas from rng whose sizes are those
    of count formulas drawn from BASE_SEED: translation cost follows
    formula size, so every seed translates the same size profile."""
    base = random.Random(BASE_SEED)
    wanted: dict[int, int] = {}
    for _ in range(count):
        size = formula_size(random_delta0_single_var(base))
        wanted[size] = wanted.get(size, 0) + 1
    out = []
    while wanted:
        A = random_delta0_single_var(rng)
        size = formula_size(A)
        if wanted.get(size):
            out.append(A)
            wanted[size] -= 1
            if not wanted[size]:
                del wanted[size]
    return out


def _rows(alpha) -> int:
    vs = prop.prop_vars(alpha)
    return 1 << ((max(vs) + 1) if vs else 0)


def _translate_job(index: int, formulas: list, truths: list[list[bool]]) -> Job:
    def run(tr: Tracer) -> Outcome:
        verdicts = []
        rows = 0
        for A in formulas:
            for n in TRANSLATE_N:
                alpha = tr.call("propositional.translate_delta0", prop.translate_delta0, A, "x", n)
                verdicts.append(tr.call("propositional.bruteforce", prop.is_tautology_bruteforce, alpha))
                rows += _rows(alpha)
        return Outcome(tuple(verdicts), True, {"propositional.bruteforce_rows": rows})

    expected = [(A, n, t) for A, ts in zip(formulas, truths) for n, t in zip(TRANSLATE_N, ts)]

    def check(o: Outcome) -> str | None:
        for (A, n, truth), verdict in zip(expected, o.verdict):
            if verdict != truth:
                return f"{print_formula(A)}: tautology={verdict}, but it holds at 0..{n} is {truth}"
        return None

    return Job(f"translate[{index}]", "translate", run, check, "; ".join(print_formula(A) for A in formulas))


def _cnf_job(index: int, cs: prop.ClauseSet, sat: bool) -> Job:
    def run(tr: Tracer) -> Outcome:
        proof = tr.call("propositional.dp_refutation", prop.dp_refutation, cs)
        if proof is None:
            return Outcome("sat", True, {"propositional.dp_steps": 0})
        full = tr.call("propositional.check_resolution", prop.check_resolution, cs, proof)
        cut = prop.ResolutionProof(proof.steps[:-1])
        truncated = tr.call("propositional.check_resolution", prop.check_resolution, cs, cut)
        steps = len(proof.steps)
        return Outcome(
            ("unsat", full.ok, truncated.ok),
            True,
            {"propositional.dp_steps": steps, "propositional.resolution_steps": 2 * steps - 1},
        )

    expected = "sat" if sat else ("unsat", True, False)

    def check(o: Outcome) -> str | None:
        return None if o.verdict == expected else f"verdict {o.verdict}, brute force says {expected}"

    return Job(f"cnf[{index},vars={cs.n_vars},{'sat' if sat else 'unsat'}]", "cnf", run, check,
               prop.to_dimacs(cs))


def _sp_job(text: str) -> Job:
    alpha = prop.parse_prop(text)
    n = max(prop.prop_vars(alpha)) + 1
    # Independent answer: every row of the truth table, by eval_prop.
    taut = all(prop.eval_prop(alpha, {i: bool((row >> i) & 1) for i in range(n)}) for row in range(1 << n))

    def run(tr: Tracer) -> Outcome:
        cs = tr.call("propositional.negation_clauses", prop.negation_clauses, alpha).clause_set
        proof = tr.call("propositional.dp_refutation", prop.dp_refutation, cs)
        ok = proof is not None and tr.call("propositional.check_resolution", prop.check_resolution, cs, proof).ok
        measure = tr.call("propositional.s_p", prop.resolution_system().s_p, alpha, SP_CAP)
        steps = len(proof.steps) if proof is not None else 0
        return Outcome(
            (ok, measure.value),
            not measure.exceeds_cap,
            {"propositional.dp_steps": steps, "propositional.resolution_steps": steps},
            steps,
        )

    def check(o: Outcome) -> str | None:
        ok, value = o.verdict
        if not taut:
            return "s_p corpus formula is not a tautology"
        if not ok:
            return "no valid refutation of the negation of a tautology"
        if value is not None and value > o.payload:
            return f"s_p = {value} exceeds the {o.payload}-step DP refutation"
        return None

    return Job(f"s_p[{text}]", "s_p", run, check)


def _psim_job(n: int) -> Job:
    reflexive = parse_formula("x = x")
    alpha = prop.translate_delta0(reflexive, x="x", n=n)
    corpus = [(alpha, prop.print_truth_table_proof(alpha).encode())]
    # x = x holds at every value, so the translation is a tautology and both
    # the table proof and its translation must be accepted.
    truth = all(reference.sentence_truth(substitute(reflexive, "x", numeral(i))) for i in range(n + 1))

    def run(tr: Tracer) -> Outcome:
        report = tr.call(
            "propositional.p_simulation_check",
            prop.p_simulation_check,
            prop.resolution_system(),
            prop.truth_table_system(),
            prop.table_to_resolution_translator,
            corpus,
        )
        return Outcome(report.all_ok, True)

    def check(o: Outcome) -> str | None:
        return None if o.verdict == truth else f"all_ok={o.verdict}, expected {truth}"

    return Job(f"psim[table:resolution,n={n}]", "psim", run, check)


def setup(seed: int, tr: Tracer) -> Plan:
    rng = random.Random(seed)

    def generate():
        formulas = _same_sizes(rng, TRANSLATE_BATCHES * TRANSLATE_BATCH)
        base = random.Random(BASE_SEED)
        candidates = {n: [_renamed(rng, _random_3cnf(base, n)) for _ in range(40)] for n in CNF_VARS}
        return formulas, candidates

    formulas, candidates = tr.call("corpus.generate", generate)

    def oracle():
        truths = [
            [all(reference.sentence_truth(substitute(A, "x", numeral(i))) for i in range(n + 1)) for n in TRANSLATE_N]
            for A in formulas
        ]
        cnfs = []
        for n in CNF_VARS:
            by_sat: dict[bool, list] = {True: [], False: []}
            for cs in candidates[n]:
                sat = prop.brute_force_satisfiable(cs)
                if len(by_sat[sat]) < CNF_PAIRS:
                    by_sat[sat].append(cs)
                if min(len(v) for v in by_sat.values()) == CNF_PAIRS:
                    break
            for sat in (True, False):
                if len(by_sat[sat]) < CNF_PAIRS:
                    raise RuntimeError(f"too few {'satisfiable' if sat else 'unsatisfiable'} {n}-var instances")
                cnfs += [(cs, sat) for cs in by_sat[sat]]
        return truths, cnfs

    truths, cnfs = tr.call("reference.oracle", oracle)

    b = TRANSLATE_BATCH
    translate = [
        _translate_job(i, formulas[i * b : (i + 1) * b], truths[i * b : (i + 1) * b]) for i in range(TRANSLATE_BATCHES)
    ]
    others = (
        [_cnf_job(i, cs, sat) for i, (cs, sat) in enumerate(cnfs)]
        + [_sp_job(t) for t in SP_TAUTOLOGIES]
        + [_psim_job(n) for n in PSIM_N]
    )
    jobs: list[Job] = []
    step = len(translate) / len(others)
    for i, job in enumerate(others):
        jobs += translate[int(i * step) : int((i + 1) * step)]
        jobs.append(job)

    smallest_cnf = min(range(len(cnfs)), key=lambda i: cnfs[i][0].n_vars)
    warmup = [
        translate[0],
        _cnf_job(smallest_cnf, *cnfs[smallest_cnf]),
        _sp_job(SP_TAUTOLOGIES[0]),
        _psim_job(PSIM_N[0]),
    ]
    info = {"why": WHY, "kinds": KINDS}
    return Plan(jobs, warmup, LIMIT_S, ROUND_S, info, probes=[_psim_job(PSIM_PROBE_N)], decision_kinds=("s_p",))
