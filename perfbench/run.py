"""Closed-loop serving benchmark — one command, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload hot-http --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (timed-run counters plus a traced replay).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit and sample count, and the run's provenance
(seed, commit, source digest, host steal).  The exit code is 1 when any
request failed the correctness check, 2 on a usage or set-up error.
``--workload all`` runs every workload, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("hot-http", "cold-solve", "sql-repeat")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def provenance(seed: int) -> dict:
    """Seed, commit and a digest of the program's sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        note = f", {metric.note}" if metric.note else ""
        print(f"  {name:<30} {metric.value:>14.6g} {metric.unit:<6} (n={metric.samples}{note})")


def run_one(args, cpu: int) -> int:
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    info = provenance(args.seed)
    report = run_workload(workload, SRC, args.seed, args.seconds, bool(args.trace), cpu)
    info["host"] = report.host
    print(f"# perfbench {workload.name}: {workload.why}")
    print("# run " + json.dumps({"workload": workload.name, "seconds": args.seconds,
                                 "trace": args.trace, **info}))
    print_table("end-to-end (timed phase, tracing off):", report.end_to_end)
    if args.trace:
        print_table("per-layer (timed-run counters, traced replay timings):",
                    report.per_layer)
    for failure in report.failures[:20]:
        print(f"FAILED {failure}")
    # the result line carries exactly the metrics BENCHMARK.json names
    spec = json.loads(SPEC.read_text())
    measured = {**report.end_to_end, **report.per_layer}
    chosen = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": measured[name].value, "unit": measured[name].unit}
            for name in chosen
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if report.failed == 0 and all(
        math.isfinite(m["value"]) for m in result["metrics"].values()) else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        status = max(status, completed.returncode)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) or {SPEC.name} are missing",
              file=sys.stderr)
        return 2
    # a terminated run still stops the serving processes it launched
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the sources and the benchmark package; not this script's directory
    sys.path[:1] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    # one CPU for this process and every process it launches: cross-CPU
    # wake-ups on a shared host add delays that depend on the neighbours
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return run_one(args, cpu)


if __name__ == "__main__":
    sys.exit(main())
