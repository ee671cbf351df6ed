"""Run one benchmark workload of proofforge and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is
a JSON report with the machine context, the job counts by kind, the
failures by name and the determinism digests.  Traced runs also write their
spans to .perfbench_out/.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (needs HERE on the path)

WORKLOADS = ("certify", "decide", "propositional")
# Set-ups per run: this process plus fresh ones; setup_s is their median.
# The propositional set-up is short, so its process start-up noise needs
# more; the decide set-up takes about 9 s, so it gets fewer, to keep the
# runs of all workloads within the time budget of a comparison.
SETUP_REPEATS = {"certify": 3, "decide": 2, "propositional": 5}
# Speedometer samples after each phase of a set-up.
SETUP_SAMPLES = 5
TRACED_CALLS = (
    "syntax.print_formula", "syntax.parse_formula",
    "calculus.print_proof_text", "calculus.parse_proof_text", "calculus.check_stored_proof",
    "verifier.proof_of", "verifier.reject", "derivations.build", "goedel.diagonalize", "goedel.eval_delta0",
    "bounded.l_k_membership", "bounded.enumerate_proofs", "bounded.regeneration_chain",
    "propositional.translate_delta0", "propositional.bruteforce", "propositional.negation_clauses",
    "propositional.dp_refutation", "propositional.check_resolution", "propositional.s_p",
    "propositional.p_simulation_check",
)
SETUP_CALLS = ("bounded.pool_warmup", "corpus.generate", "reference.oracle")
LAYERS = ("syntax", "calculus", "verifier", "derivations", "goedel", "bounded", "propositional", "job")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time budget of the window, fixing its number of rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    a = p.parse_args(argv)
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    return a


def _setup(args, tracer: harness.Tracer, speed: harness.Speedometer) -> tuple[harness.Plan, float, float]:
    """Build the plan and warm up.  Returns the plan, the set-up time at the
    nominal host speed and its wall time.

    The set-up is timed in phases (imports, the plan, each warm-up job) with
    SETUP_SAMPLES speedometer samples after each.  A phase is scaled by the
    median of the samples on either side of it; the samples' own time is
    left out."""
    if not (SRC / "proofforge" / "__init__.py").is_file():
        _fail(f"no program source at {SRC / 'proofforge'}; run from the root of a proofforge checkout")
    phases: list[tuple[float, int]] = []  # (wall seconds, index of the first sample after it)
    clock = _START

    def lap() -> None:
        nonlocal clock
        phases.append((time.perf_counter() - clock, len(speed.samples)))
        speed.sample(SETUP_SAMPLES)
        clock = time.perf_counter()

    lap()
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(f"wl_{args.workload}")
    lap()
    plan = workload.setup(args.seed, tracer)
    lap()
    for job in plan.warmup:
        r = harness.run_job(job, tracer, plan.limit_s)
        if r.failure is not None:
            _fail(f"warm-up job {job.name} failed: {r.failure}")
        lap()
    wall = sum(w for w, _ in phases)
    scaled = sum(w / speed.factor(i - SETUP_SAMPLES, i + SETUP_SAMPLES) for w, i in phases)
    return plan, scaled, wall


def _fresh_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process: at the nominal speed, and wall."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_wall_s"]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _report(args, plan: harness.Plan, rounds: int, results, probes, speed: harness.Speedometer) -> dict:
    import numpy

    kinds: dict[str, int] = {}
    seconds: dict[str, list[float]] = {}
    for job in plan.jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    for r in results:
        seconds.setdefault(r.job.kind, []).append(r.seconds)
    sources = sorted((SRC / "proofforge").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": harness.digest([[p.name, p.read_text(encoding="utf-8")] for p in sources]),
        "jobs_per_round_by_kind": kinds,
        "seconds_by_kind": {k: {"sum": sum(v), "median": statistics.median(v)} for k, v in seconds.items()},
        "round_seconds": [
            sum(r.seconds for r in results[i : i + len(plan.jobs)]) for i in range(0, len(results), len(plan.jobs))
        ],
        "rounds": rounds,
        "host_speed": {
            "reference_s_nominal": harness.REFERENCE_S,
            "samples": len(speed.samples),
            "factor_median": statistics.median(r.factor for r in results),
            "factor_min": min(r.factor for r in results),
            "factor_max": max(r.factor for r in results),
            "calibration_s": speed.spent,
        },
        "time_limit_s": plan.limit_s,
        "failures": sorted({(r.job.name, r.failure) for r in results if r.failure is not None}),
        "known_defect_probes": [
            {"job": r.job.name, "outcome": r.failure or "passed", "seconds": round(r.seconds, 3)} for r in probes
        ],
        "determinism": harness.determinism_record(results, len(plan.jobs)),
        **plan.info,
    }


def _end_to_end(results, plan: harness.Plan, setups: list[float]) -> tuple[dict, dict]:
    """The metrics, with every time at the nominal host speed, and the
    latency statistics in wall time and at the nominal speed."""
    jobs_per_round = len(plan.jobs)
    latencies = harness.job_latencies(results, jobs_per_round)
    lat = harness.latency_stats(latencies)
    wall = harness.job_latencies(results, jobs_per_round, scaled=False)
    lat["wall"] = {**harness.latency_stats(wall), "jobs_per_s": jobs_per_round / sum(wall)}
    decisions = [r for r in results[:jobs_per_round] if r.job.kind in plan.decision_kinds or not plan.decision_kinds]
    never_failed = sum(
        1 for i in range(jobs_per_round) if all(r.failure is None for r in results[i::jobs_per_round])
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (never_failed / sum(latencies), "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_p90_ms": (lat["p90_ms"], "ms"),
        "decided_ratio": (sum(1 for r in decisions if r.failure is None and r.outcome.definitive) / len(decisions), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, lat


def _per_layer(tracer: harness.Tracer, results, plan: harness.Plan, rounds: int) -> dict:
    """Busy seconds, calls and self time per round; counts of one round;
    rates over the whole window.  Window times are scaled to the nominal
    host speed by the window's median slowdown factor."""
    scale = statistics.median(r.factor for r in results)
    busy = {k: (calls, seconds / scale) for k, (calls, seconds) in tracer.busy("window").items()}
    setup_busy = tracer.busy("setup")

    def total(rs) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in rs:
            if r.outcome is not None:
                for k, v in r.outcome.counters.items():
                    out[k] = out.get(k, 0) + v
        return out

    counts = total(results)
    per_round = total(results[: len(plan.jobs)])

    def t(name: str) -> float:
        return busy.get(name, (0, 0.0))[1]

    def rate(count_name: str, seconds: float) -> float:
        return counts.get(count_name, 0) / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in TRACED_CALLS:
        calls, seconds = busy.get(name, (0, 0.0))
        m[f"{name}_s"] = (seconds / rounds, "s")
        m[f"{name}.calls"] = (calls / rounds, "count")
    for name in SETUP_CALLS:
        m[f"{name}_s"] = (setup_busy.get(name, (0, 0.0))[1], "s")
    m["syntax.parse_bytes_per_s"] = (rate("syntax.formula_bytes", t("syntax.parse_formula")), "B/s")
    m["calculus.proof_text_bytes_per_s"] = (rate("calculus.proof_text_bytes", t("calculus.parse_proof_text")), "B/s")
    m["verifier.lines_per_s"] = (rate("verifier.lines", t("verifier.proof_of") + t("verifier.reject")), "1/s")
    for c in ("symbol_comparisons", "lines_scanned", "pair_searches"):
        m[f"verifier.{c}"] = (per_round.get(f"verifier.{c}", 0), "count")
    m["derivations.lines_per_s"] = (rate("derivations.lines", t("derivations.build")), "1/s")
    m["goedel.eval_ops"] = (per_round.get("goedel.eval_ops", 0), "count")
    m["goedel.eval_ops_per_s"] = (rate("goedel.eval_ops", t("goedel.eval_delta0")), "1/s")
    m["bounded.pool_lines"] = (plan.info.get("bounded.pool_lines", 0), "count")
    m["bounded.nodes"] = (per_round.get("bounded.nodes", 0), "count")
    search_s = t("bounded.enumerate_proofs") + t("bounded.regeneration_chain")
    m["bounded.nodes_per_s"] = (rate("bounded.nodes", search_s), "1/s")
    m["propositional.bruteforce_rows_per_s"] = (
        rate("propositional.bruteforce_rows", t("propositional.bruteforce")), "1/s")
    m["propositional.dp_steps"] = (per_round.get("propositional.dp_steps", 0), "count")
    m["propositional.resolution_steps_per_s"] = (
        rate("propositional.resolution_steps", t("propositional.check_resolution")), "1/s")
    self_s = tracer.self_time_by_layer("window")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / scale / rounds, "s")
    latencies = harness.job_latencies(results, len(plan.jobs))
    m["trace.jobs_per_s"] = (sum(1 for r in results[: len(plan.jobs)] if r.failure is None) / sum(latencies), "1/s")
    m["trace.spans"] = (sum(1 for s in tracer.spans if s[4] == "window") / rounds, "count")
    return m


def main(argv=None) -> int:
    args = _args(argv)
    tracer = harness.Tracer(enabled=bool(args.trace) and not args.setup_only)
    speed = harness.Speedometer()
    plan, setup_s, setup_wall_s = _setup(args, tracer, speed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    # An untraced run times fresh set-ups between its rounds, one per gap
    # while they last: they spread the rounds over more time, so that a
    # job's median is less likely to come from one slow spell of the host.
    setups = [(setup_s, setup_wall_s)]

    def between() -> None:
        if len(setups) < SETUP_REPEATS[args.workload]:
            setups.append(_fresh_setup(args))

    rounds = harness.rounds_for(plan, args.seconds)
    tracer.phase = "window"
    results = harness.run_window(plan, tracer, rounds, speed, None if args.trace else between)
    tracer.phase = "probe"
    probes = [harness.run_job(job, tracer, plan.limit_s) for job in plan.probes]
    report = _report(args, plan, rounds, results, probes, speed)

    if args.trace:
        metrics = _per_layer(tracer, results, plan, rounds)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        while len(setups) < SETUP_REPEATS[args.workload]:
            setups.append(_fresh_setup(args))
        metrics, lat = _end_to_end(results, plan, [s for s, _ in setups])
        report["setup_runs_s"] = [s for s, _ in setups]
        report["setup_runs_wall_s"] = [w for _, w in setups]
        report["wall"] = lat["wall"]
        report["latency_samples"] = lat["samples"]
        report["latency_samples_beyond_p90"] = lat["beyond_p90"]

    failed = [r for r in results if r.failure is not None]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
