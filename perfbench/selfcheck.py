"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

Runs each workload three times with the shortest window (--seconds 1):
twice with seed SEED and once with SEED + 1.  The two same-seed runs must
give the same job list and the same first-round verdicts and deterministic
counts (verifier cost counters, bounded.nodes, goedel.eval_ops,
propositional.dp_steps, bounded.pool_lines); the other seed must change the
job list.  Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "decide", "propositional")
SEED = 1


def _report(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    report["pool_lines"] = report.get("bounded.pool_lines")
    return report


def main() -> int:
    ok = True
    for w in WORKLOADS:
        first, again, other = _report(w, SEED), _report(w, SEED), _report(w, SEED + 1)
        same = first["determinism"] == again["determinism"] and first["pool_lines"] == again["pool_lines"]
        changed = first["determinism"]["job_list"] != other["determinism"]["job_list"]
        print(f"{w}: same seed identical: {same}; other seed changes inputs: {changed}; "
              f"{first['determinism']} vs {other['determinism']}")
        ok = ok and same and changed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
