"""Job loop, per-job time limit, tracing and statistics for the benchmark.

A workload is a fixed list of jobs (one round).  The loop runs a fixed
number of whole rounds, closed loop with one client; the number comes from
the run's time budget and the workload's nominal round time, never from how
fast the rounds actually run, so every run does the same work.  A job's
latency is its median over the rounds: a host stall in one round does not
reach it.  Every time the benchmark reports is scaled to a nominal host
speed measured between the jobs (see `Speedometer`).  Each job's verdict is
compared with an answer computed without the code path under test; that
comparison runs after the job's timer has stopped.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# p90 needs at least ten samples beyond it: a round holds at least this many jobs.
MIN_SAMPLES = 100
MIN_ROUNDS = 3
# Nominal time of one `reference_work()`: the time it takes, in a steady
# spell, on the 2-core x86-64 host the benchmark was built on (Python 3.11.7).
REFERENCE_S = 0.0015
# A window measures the host's speed after at most this much job time.
CALIBRATE_EVERY_S = 0.04


class JobTimeout(BaseException):
    """Raised inside a job by the interval timer.

    A BaseException, so that an `except Exception` in the code under test
    cannot swallow it."""


@dataclass
class Outcome:
    """What a job returned: a comparable verdict plus deterministic counts."""

    verdict: object
    definitive: bool = True
    counters: dict[str, int] = field(default_factory=dict)
    payload: object = None


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[["Tracer"], Outcome]
    # Returns None when the outcome matches the independent answer, else a
    # description of the mismatch.  Never timed.
    check: Callable[[Outcome], str | None]
    inputs: str = ""  # the job's input, printed, when the name does not show it


@dataclass
class Plan:
    """A workload's set-up product: the round, the warm-up and the context."""

    jobs: list[Job]
    warmup: list[Job]
    limit_s: float
    # Nominal time of one round on a 2-core x86-64 host; with the run's time
    # budget it fixes the number of rounds (see `rounds_for`).
    round_s: float
    info: dict
    probes: list[Job] = field(default_factory=list)
    # Kinds whose answers decided_ratio counts: the ones that may come back
    # undecided.  Empty means every kind.
    decision_kinds: tuple[str, ...] = ()


class Tracer:
    """Spans around calls into the program, kept in memory.

    Disabled, `call` is a plain call.  Enabled, each call records
    (name, start, end, parent) and the phase it ran in."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.phase = "setup"
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.phase))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.phase)

    def busy(self, phase: str) -> dict[str, tuple[int, float]]:
        """name -> (calls, busy seconds) over the spans of one phase."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, ph in self.spans:
            if ph == phase:
                out[name][0] += 1
                out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_time_by_layer(self, phase: str) -> dict[str, float]:
        """Layer -> span time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, ph in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase:
                out[name.split(".", 1)[0]] += (end - start) - child[i]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, ph in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "phase": ph}) + "\n")


@dataclass(frozen=True)
class _Leaf:
    value: int


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _tree(depth: int, k: int):
    if depth == 0:
        return _Leaf(k & 3)
    return _Node(_tree(depth - 1, k), _tree(depth - 1, k + depth))


def _show(t) -> str:
    match t:
        case _Leaf(v):
            return str(v)
        case _Node(left, right):
            return "(" + _show(left) + " " + _show(right) + ")"
    raise TypeError(t)


def reference_work() -> int:
    """A fixed computation in the program's own idiom (frozen dataclass
    trees built, hashed, compared, matched and printed; strings joined and
    split), independent of the program, so that no change to it moves this
    time."""
    seen = set()
    total = 0
    for k in range(3):
        t = _tree(6, k)
        seen.add(t)
        total += len(_show(t)) + (t == _tree(6, k))
    for i in range(150):
        words = " ".join(str(j) for j in range(i & 15))
        total += len(words.split(" ")) + words.count("1")
    return total + len(seen)


class Speedometer:
    """The host's speed, from `reference_work()` timed between jobs.

    The host this benchmark was built on slows every computation by up to
    twofold, in spells from a fraction of a second to minutes, which no
    number of rounds in one run averages out.  A reference computation timed
    next to the jobs slows with them, so a job's time divided by the
    reference's slowdown factor (`factor`) is its time at the nominal speed.
    The raw wall times stay in the report."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent calibrating

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            reference_work()
            seconds = time.perf_counter() - start
            self.samples.append(seconds)
            self.spent += seconds

    def factor(self, lo: int, hi: int) -> float:
        """Slowdown against the nominal speed over samples[lo:hi], by median."""
        window = self.samples[max(0, lo) : hi]
        return statistics.median(window) / REFERENCE_S


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Result:
    job: Job
    seconds: float  # wall time
    outcome: Outcome | None
    failure: str | None  # "timeout", "error: ...", "mismatch: ..." or None
    factor: float = 1.0  # the host's slowdown around the job (Speedometer)

    @property
    def scaled(self) -> float:
        """Seconds at the nominal host speed."""
        return self.seconds / self.factor


def run_job(job: Job, tracer: Tracer, limit_s: float) -> Result:
    """Run one job under the time limit; check it afterwards, untimed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcome = None
    failure = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            outcome = tracer.call("job." + job.kind, job.run, tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        failure = "timeout"
    except Exception as e:  # a job that raises is a failed job, not a crash
        failure = f"error: {type(e).__name__}: {e}"
    finally:
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    if outcome is not None:
        mismatch = job.check(outcome)
        if mismatch is not None:
            failure = f"mismatch: {mismatch}"
        outcome.payload = None  # may hold whole proofs; the check is done
    return Result(job, seconds, outcome, failure)


def rounds_for(plan: Plan, seconds: float) -> int:
    """Rounds that fill `seconds` at the nominal round time, at least MIN_ROUNDS."""
    return max(MIN_ROUNDS, round(seconds / plan.round_s))


def run_window(
    plan: Plan, tracer: Tracer, rounds: int, speed: Speedometer, between: Callable[[], None] | None = None
) -> list[Result]:
    """`rounds` whole rounds of the plan's jobs; `between()` runs, untimed,
    after each round but the last.

    The speedometer samples whenever CALIBRATE_EVERY_S of job time has
    passed since its last sample, and right before and after each round.  A
    job's factor is the median of the two samples before it and the two
    after it."""
    if len(plan.jobs) < MIN_SAMPLES:
        raise ValueError(f"a round needs at least {MIN_SAMPLES} jobs, this one has {len(plan.jobs)}")
    results: list[Result] = []
    marks: list[int] = []  # per result: the index of the first sample after its job
    for i in range(rounds):
        if i and between is not None:
            between()
        speed.sample(2)
        since = 0.0
        for job in plan.jobs:
            if since >= CALIBRATE_EVERY_S:
                speed.sample()
                since = 0.0
            r = run_job(job, tracer, plan.limit_s)
            since += r.seconds
            marks.append(len(speed.samples))
            results.append(r)
        speed.sample(2)
    for r, mark in zip(results, marks):
        r.factor = speed.factor(mark - 2, mark + 2)
    return results


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def job_latencies(results: list[Result], jobs_per_round: int, scaled: bool = True) -> list[float]:
    """Each job's median time over the rounds, in seconds at the nominal
    host speed (or wall seconds), in job order."""
    def t(r: Result) -> float:
        return r.scaled if scaled else r.seconds

    return [statistics.median(t(r) for r in results[i::jobs_per_round]) for i in range(jobs_per_round)]


def latency_stats(latencies: list[float]) -> dict:
    lat = sorted(s * 1000.0 for s in latencies)
    p90 = percentile(lat, 90)
    return {
        "samples": len(lat),
        "p50_ms": statistics.median(lat),
        "p90_ms": p90,
        "beyond_p90": sum(1 for x in lat if x > p90),
    }


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True, default=str).encode()).hexdigest()[:16]


def determinism_record(results: list[Result], jobs_per_round: int) -> dict:
    """Digests of the job list and of the first round's verdicts and counts."""
    first = results[:jobs_per_round]
    job_list = [[r.job.kind, r.job.name, r.job.inputs] for r in first]
    verdicts = [
        [r.job.name, r.failure, repr(r.outcome.verdict) if r.outcome else None,
         sorted(r.outcome.counters.items()) if r.outcome else None]
        for r in first
    ]
    return {"job_list": digest(job_list), "verdicts_and_counts": digest(verdicts)}
