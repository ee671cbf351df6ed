"""certify: the path of `forge diagonalize --out` + `forge check`, and of
`forge bench verifier`.

Each job builds or loads a first-order proof, prints the proof text and the
target formula, parses both back, and checks the proof twice: by search
(`proof_of_with_cost`) and against its stored justifications
(`check_stored_proof`).  Accepting and rejecting use the same verifier.
"""

from __future__ import annotations

import random

from harness import Job, Outcome, Plan, Tracer

from proofforge import reference
from proofforge.bench import mp_chain
from proofforge.calculus import Proof, ProofLine, check_stored_proof, parse_proof_text, print_proof_text, proof_size
from proofforge.corpus import derived_theorem_corpus
from proofforge.goedel import diagonalize, refutation_target, standard_theory
from proofforge.syntax import parse_formula, print_formula
from proofforge.verifier import proof_of_with_cost

WHY = (
    "Loads syntax, calculus, verifier, derivations and goedel.diagonalize and "
    "little else; fixed-point certificates are megabytes of proof text, so parse/print "
    "and the verifier's quadratic pair search dominate."
)
KINDS = {
    "chain": "bench.mp_chain detachment chains at 16 fixed (k, m) points over k in 20..200, m in 8..64: "
    "the verifier's O(k^2) pair search and formula size m",
    "derived": "corpus.derived_theorem_corpus, a fixed quota per strategy (all but conj) at evenly spaced "
    "proof-size ranks, checked in batches of five proofs of one strategy (dne one at a time): many small "
    "mixed-rule proofs",
    "fixed_point": "diagonalize on x = 0 from corpus.diagonal_shapes (1.5 s per job): a 0.5 MB certificate, "
    "dominated by parse_proof_text",
    "reject": "a chain (8 fixed (k, m) points) with the false line !(0 = 0) appended under the chain's "
    "last modus ponens justification; both checkers must reject it at that line, after a full scan",
}
# Fixed-point shapes kept, and the shapes left out with the cost of one job
# (diagonalize + print + parse + proof_of + check_stored_proof) and its proof
# text, measured on a 2-core x86-64 host, Python 3.11.7, with another
# process running beside it.  A run needs several rounds for its per-job
# median, so one round cannot afford more than one fixed point.
FIXED_POINT_SHAPES = ("x = 0",)
LEFT_OUT_SHAPES = {
    "!(x = 0)": "3.7 s (minimum over six rounds), 1.0 MB; it would double the round",
    "x = x": "11.8-15.0 s over five runs, 2.3 MB",
    "S(x) = x": "17.3 s, 2.7 MB",
    "x + S(0) = S(x)": "43 s, 4.2 MB",
    "x + x = x * x": "179 s, 18.8 MB",
    "!(!(x = x))": "36 s, 5.6 MB",
    "x = 0 -> x = x": "95 s, 11.2 MB",
    "x = x -> 0 = 0": "40 s, 4.9 MB",
    "!(x = 0) -> x = x": "106 s, 14.1 MB",
    "forall<= y x (y = y)": "6.2 s, 1.0 MB",
    "exists<= y x (y + y = x)": "45 s, 5.0 MB",
    "forall<= y S(S(0)) (y * x = x * y)": "57 s, 6.8 MB",
    "exists<= y (x + S(0)) (y = x)": "42 s, 5.5 MB",
    "len(x) = x": "21.5 s, 2.7 MB",
    "sub(x, x) = diag(x)": "71 s, 8.9 MB",
    "dbl(x) = x + x": "70 s, 8.9 MB",
    "!(le(x, S(S(S(0)))) = S(0))": "12.0 s, 2.2 MB",
    "provability, m = 1": "12.3 s, 1.7 MB",
    "provability, m = 2": "11.0 s, 1.9 MB",
    "provability, m = 4": "13.1 s, 2.0 MB",
    "provability m = 6; its negation at m = 2 and 6": "not measured",
}
LIMIT_S = 60.0
ROUND_S = 5.0
N_CHAIN = 16
N_REJECT = 8
# Derived proofs are checked in batches of one strategy: (batches, proofs
# per batch).  Per-proof medians on a 2-core host: eqrefl and compute 0.2 ms,
# robinson 0.8, chain 0.9, identity 2.4, dne 14, conj 30-100.  One small
# proof's cost varies threefold by seed and is too short to time steadily;
# a batch of five averages both.  With these quotas a round has 100 jobs:
# 25 batches near 1 ms, the median inside 34 robinson and chain batches near
# 4.5 ms, 16 identity batches and dne proofs at 5-27 ms, and the 90th
# percentile inside the 25 fixed chain, reject and fixed-point jobs, none of
# which depends on the seed.  conj proofs are left out: their cost varies
# threefold by seed, and among the chain points they moved the 90th
# percentile by a third.
DERIVED_BATCHES = {"eqrefl": (12, 5), "compute": (13, 5), "robinson": (17, 5), "chain": (17, 5),
                   "identity": (6, 5), "dne": (10, 1)}
# Each strategy's proofs are taken at evenly spaced size ranks of a pool
# this many times larger.
POOL_FACTOR = 2
K_RANGE = (20, 200)
M_RANGE = (8, 64)


def _chain_sizes(n: int) -> list[tuple[int, int]]:
    """n (k, m) points, one per slice of each range, slices paired by a fixed
    shuffle.  Like the ladders of `forge bench verifier` they do not depend
    on the seed: the verifier's cost grows with k^2 * m, and a per-seed draw
    moved the kind's total cost by a quarter between seeds."""
    pairing = list(range(n))
    random.Random(n).shuffle(pairing)

    def point(i: int, lo: int, hi: int) -> int:
        return lo + int((i + 0.5) * (hi - lo + 1) / n)

    return [(point(i, *K_RANGE), point(pairing[i], *M_RANGE)) for i in range(n)]


def _round_trip(tr: Tracer, theory, proof: Proof, phi, rejecting: bool) -> Outcome:
    text = tr.call("calculus.print_proof_text", print_proof_text, proof)
    target = tr.call("syntax.print_formula", print_formula, phi)
    arities = theory.arities()
    parsed = tr.call("calculus.parse_proof_text", parse_proof_text, text, arities)
    parsed_phi = tr.call("syntax.parse_formula", parse_formula, target, arities)
    ok, cost = tr.call("verifier.reject" if rejecting else "verifier.proof_of", proof_of_with_cost, theory, parsed, parsed_phi)
    stored = tr.call("calculus.check_stored_proof", check_stored_proof, theory, parsed)
    counters = {
        "verifier.symbol_comparisons": cost.symbol_comparisons,
        "verifier.lines_scanned": cost.lines_scanned,
        "verifier.pair_searches": cost.pair_searches,
        "verifier.lines": cost.lines,
        "calculus.proof_text_bytes": len(text.encode()),
        "syntax.formula_bytes": len(target.encode()),
    }
    return Outcome((ok, stored.ok), True, counters, (proof, phi, parsed, parsed_phi, stored.reason))


def _check(expected: tuple[bool, bool], truth: bool | None):
    """Verdicts must equal `expected`; the parsed text must equal what was
    printed; an accepted conclusion must be true by reference.sentence_truth
    (None where the conclusion uses definitional symbols)."""

    def check(o: Outcome) -> str | None:
        proof, phi, parsed, parsed_phi, _ = o.payload
        if parsed != proof or parsed_phi != phi:
            return "print/parse round trip changed the proof"
        if o.verdict != expected:
            return f"(proof_of, check_stored_proof) = {o.verdict}, expected {expected}"
        if o.verdict[0] and truth is False:
            return "accepted a proof of a false sentence"
        return None

    return check


def _chain_job(theory, k: int, m: int) -> Job:
    def run(tr: Tracer) -> Outcome:
        proof, phi = tr.call("derivations.build", mp_chain, theory, k, m)
        o = _round_trip(tr, theory, proof, phi, rejecting=False)
        o.counters["derivations.lines"] = len(proof.lines)
        return o

    def check(o: Outcome) -> str | None:
        proof, phi, _, _, _ = o.payload
        return _check((True, True), reference.sentence_truth(phi))(o)

    return Job(f"chain[k={k},m={m}]", "chain", run, check)


def _derived_job(theory, index: int, samples: list, truths: list[bool]) -> Job:
    def run(tr: Tracer) -> Outcome:
        outcomes = [_round_trip(tr, theory, s.proof, s.formula, rejecting=False) for s in samples]
        counters: dict[str, int] = {}
        for o in outcomes:
            for k, v in o.counters.items():
                counters[k] = counters.get(k, 0) + v
        return Outcome(tuple(o.verdict for o in outcomes), True, counters, outcomes)

    checks = [_check((True, True), t) for t in truths]

    def check(o: Outcome) -> str | None:
        for sample, c, one in zip(samples, checks, o.payload):
            mismatch = c(one)
            if mismatch is not None:
                return f"{print_formula(sample.formula)}: {mismatch}"
        return None

    return Job(f"derived[{index}:{samples[0].strategy}x{len(samples)}]", "derived", run, check,
               "; ".join(print_formula(s.formula) for s in samples))


def _fixed_point_job(theory, shape: str) -> Job:
    psi = parse_formula(shape)

    def run(tr: Tracer) -> Outcome:
        result = tr.call("goedel.diagonalize", diagonalize, theory, psi)
        return _round_trip(tr, theory, result.equivalence, result.biconditional, rejecting=False)

    return Job(f"fixed_point[{shape}]", "fixed_point", run, _check((True, True), None))


def _reject_job(theory, k: int, m: int, false_truth: bool) -> Job:
    bad = refutation_target()

    # The appended line carries the chain's last justification, modus
    # ponens from two earlier lines, so check_stored_proof has to evaluate
    # it rather than refuse a missing justification.
    def run(tr: Tracer) -> Outcome:
        proof, _ = tr.call("derivations.build", mp_chain, theory, k, m)
        broken = Proof(proof.lines + (ProofLine(bad, proof.lines[-1].justification),))
        o = _round_trip(tr, theory, broken, bad, rejecting=True)
        o.counters["derivations.lines"] = len(proof.lines)
        return o

    # The appended line is false (reference.sentence_truth), so a sound
    # verifier must reject, and only at the last line: the stored check
    # names that line, and the search scans every line before it once more
    # than it does for the chain alone (the scan count of the chain is
    # taken once, after the first run).
    chain_scans: list[int] = []

    def check(o: Outcome) -> str | None:
        if false_truth:
            return "the appended line is not false"
        mismatch = _check((False, False), False)(o)
        if mismatch is not None:
            return mismatch
        broken, _, _, _, reason = o.payload
        n = len(broken.lines)
        if reason != f"line {n}: consequent mismatch":
            return f"check_stored_proof rejected with '{reason}', expected at line {n}"
        if not chain_scans:
            chain = Proof(broken.lines[:-1])
            chain_scans.append(proof_of_with_cost(theory, chain, chain.conclusion)[1].lines_scanned)
        scanned = o.counters["verifier.lines_scanned"]
        if scanned != chain_scans[0] + n - 1:
            return f"proof_of scanned {scanned} lines, a full scan is {chain_scans[0] + n - 1}"
        return None

    return Job(f"reject[k={k},m={m}]", "reject", run, check)


def setup(seed: int, tr: Tracer) -> Plan:
    theory = standard_theory()
    rng = random.Random(seed)

    # Proof-checking time follows proof size, which varies several-fold
    # inside a strategy.  Each strategy's quota is taken at evenly spaced
    # size ranks of a larger pool, so every seed checks the same size
    # profile with different proofs; the seed's rng then deals them into
    # batches.
    quotas = {s: b * n for s, (b, n) in DERIVED_BATCHES.items()}

    def generate():
        pools: dict[str, list] = {s: [] for s in DERIVED_BATCHES}
        while any(len(pools[s]) < POOL_FACTOR * q for s, q in quotas.items()):
            for sample in derived_theorem_corpus(theory, rng, 50):
                if sample.strategy in pools:
                    pools[sample.strategy].append(sample)
        batches = []
        for strategy, (count, size) in sorted(DERIVED_BATCHES.items()):
            pool = sorted(pools[strategy][: POOL_FACTOR * quotas[strategy]], key=lambda s: proof_size(s.proof))
            picked = pool[POOL_FACTOR // 2 :: POOL_FACTOR]
            rng.shuffle(picked)
            batches += [picked[i * size : (i + 1) * size] for i in range(count)]
        return batches

    derived = tr.call("corpus.generate", generate)
    truths = tr.call("reference.oracle", lambda: [[reference.sentence_truth(s.formula) for s in b] for b in derived])
    false_truth = tr.call("reference.oracle", reference.sentence_truth, refutation_target())

    chains = [_chain_job(theory, k, m) for k, m in _chain_sizes(N_CHAIN)]
    derived_jobs = [_derived_job(theory, i, b, t) for i, (b, t) in enumerate(zip(derived, truths))]
    fixed = [_fixed_point_job(theory, shape) for shape in FIXED_POINT_SHAPES]
    rejects = [_reject_job(theory, k, m, false_truth) for k, m in _chain_sizes(N_REJECT)]

    # Interleave so that no kind runs as one block.
    jobs: list[Job] = []
    groups = [derived_jobs, chains, rejects, fixed]
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                jobs.append(g[i])

    warmup = [
        _chain_job(theory, K_RANGE[0], M_RANGE[0]),
        derived_jobs[0],
        _fixed_point_job(theory, FIXED_POINT_SHAPES[0]),
        _reject_job(theory, K_RANGE[0], M_RANGE[0], false_truth),
    ]
    info = {
        "why": WHY,
        "kinds": KINDS,
        "fixed_point_shapes": list(FIXED_POINT_SHAPES),
        "fixed_point_shapes_left_out": LEFT_OUT_SHAPES,
    }
    return Plan(jobs, warmup, LIMIT_S, ROUND_S, info)
