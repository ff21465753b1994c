"""Run one of the repository's ``BENCH_*.json`` benchmarks.

Usage::

    python benchmarks/run.py {kernels,sql,replay,routing} [--smoke] [--output PATH]

A benchmark is its fixed configuration (``FULL`` for the artifact,
``SMOKE`` for CI) plus ``measure(smoke) -> (timings, detail, failure)``,
one trial: ``timings`` maps a name to one wall-clock measurement,
``detail`` holds the trial's other results and ``failure`` is ``None``
or why the benchmark's exit check failed.  Kernels, SQL and routing
live in ``benchmarks/bench_<name>.py``; replay, a thin loop over the
stream, schedulers and driver of ``python -m repro replay``, lives here.

The runner makes :data:`REPEATS` trials of a full run (one of a smoke
run) and records the median and quartiles of every timing, plus each
trial's own wall time (``trial_s``).  It stamps the provenance block,
writes the report and exits 1 if any trial failed its check.  A full
run writes ``BENCH_<name>.json`` at the repository root; a smoke run
writes only to an explicit ``--output``, so CI and local smokes never
overwrite a committed artifact.

The repository's ``src`` goes at the *end* of ``sys.path``, so a
``PYTHONPATH`` names the tree under test: ``PYTHONPATH=<other
tree>/src python benchmarks/run.py kernels --output F`` times another
commit's code with this commit's benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(REPO_ROOT / "src"))

#: trials of a full run per benchmark
REPEATS = {"kernels": 5, "sql": 5, "replay": 5, "routing": 5}

REPLAY_FULL = {
    "requests": 100_000,
    "unique": 512,
    "zipf_s": 1.1,
    "backends": ("thread", "process"),
    "workers": 2,
    "queue_limit": 512,
    "max_in_flight": 256,
    "deadline_ms": 200.0,
    "mqo_fraction": 0.5,
    "sql_fraction": 0.2,
    "seed": 0,
}
REPLAY_SMOKE = {**REPLAY_FULL, "requests": 1_000, "unique": 64}


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of ``values``, to 6 decimals (linear
    interpolation between order statistics, so one value is its own
    median and quartiles)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("spread of no values")
    if len(ordered) == 1:
        q1 = median = q3 = ordered[0]
    else:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _git(*args: str) -> Optional[str]:
    """``git <args>`` output in the repository, ``None`` if git fails."""
    try:
        proc = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance_block() -> Dict[str, object]:
    """Where a report was measured: interpreter, host, core count and
    commit.  ``git_dirty`` is true when ``src`` or ``benchmarks`` differ
    from that commit, i.e. the code measured is not the commit named."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src", "benchmarks")
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit.strip() if commit else None,
        "git_dirty": None if status is None else bool(status.strip()),
    }


def report_path(name: str, output: Optional[str], smoke: bool) -> Optional[pathlib.Path]:
    """``--output`` when given, else the committed artifact for a full
    run and ``None`` (write nothing) for a smoke run."""
    if output:
        return pathlib.Path(output)
    return None if smoke else REPO_ROOT / f"BENCH_{name}.json"


def write_report(path: Optional[pathlib.Path], report: Dict[str, object]) -> None:
    if path is None:
        print("smoke run: no report written (pass --output to keep one)")
        return
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def measure_replay(smoke: bool):
    """Stream the Zipfian mix once through each backend; a backend fails
    on any error or invalid plan, or unless every request was answered."""
    from repro.replay import replay_stream, run_replay
    from repro.server import ServiceConfig, make_scheduler

    config = REPLAY_SMOKE if smoke else REPLAY_FULL
    timings, runs, failures = {}, {}, []
    for backend in config["backends"]:
        stream = replay_stream(
            config["requests"],
            seed=config["seed"],
            unique=config["unique"],
            zipf_s=config["zipf_s"],
            deadline_ms=config["deadline_ms"],
            mqo_fraction=config["mqo_fraction"],
            sql_fraction=config["sql_fraction"],
        )
        with make_scheduler(
            backend,
            config=ServiceConfig(seed=config["seed"]),
            workers=config["workers"],
            queue_limit=config["queue_limit"],
        ) as scheduler:
            report = run_replay(scheduler, stream, max_in_flight=config["max_in_flight"])
        latency = report.latency_ms
        timings[f"{backend}.throughput_rps"] = report.throughput_rps
        for q in ("p50", "p95", "p99"):
            timings[f"{backend}.latency_{q}_ms"] = latency.get(q, 0.0)
        print(
            f"{backend:>7s}: {report.requests} requests in {report.wall_seconds:.1f}s "
            f"({report.throughput_rps:.1f} req/s), p50={latency.get('p50', 0.0):.3f} ms "
            f"p99={latency.get('p99', 0.0):.1f} ms, missed {report.deadline_missed}, "
            f"errors {report.errors}, invalid {report.invalid}"
        )
        runs[backend] = report.to_dict()
        if (
            report.errors or report.invalid or report.ok == 0
            or report.requests != config["requests"]
        ):
            failures.append(f"{backend}: unhealthy replay {runs[backend]}")
    return timings, {"backends": runs}, "; ".join(failures) or None


def load(name: str):
    """``(FULL, SMOKE, measure)`` of benchmark ``name``."""
    if name == "replay":
        return REPLAY_FULL, REPLAY_SMOKE, measure_replay
    bench = importlib.import_module(f"bench_{name}")
    return bench.FULL, bench.SMOKE, bench.measure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark", choices=sorted(REPEATS))
    parser.add_argument(
        "--smoke", action="store_true",
        help="one small trial for CI, same report shape and exit check",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default: BENCH_<benchmark>.json "
        "for full runs; a smoke run writes only when this is given)",
    )
    args = parser.parse_args(argv)
    full_config, smoke_config, measure = load(args.benchmark)
    repeats = 1 if args.smoke else REPEATS[args.benchmark]

    timings: Dict[str, list] = {}
    trials = []
    failures = []
    for trial in range(repeats):
        print(f"== {args.benchmark} trial {trial + 1}/{repeats}", flush=True)
        start = time.perf_counter()
        measured, detail, failure = measure(args.smoke)
        measured["trial_s"] = time.perf_counter() - start
        for name, value in measured.items():
            timings.setdefault(name, []).append(value)
        trials.append(detail)
        if failure:
            failures.append(failure)
            print(f"FAIL: {failure}", file=sys.stderr)

    report = {
        "benchmark": args.benchmark,
        "config": {
            **(smoke_config if args.smoke else full_config),
            "repeats": repeats,
            "smoke": args.smoke,
        },
        "provenance": provenance_block(),
        "timings": {name: spread(values) for name, values in timings.items()},
        "trials": trials,
    }
    write_report(report_path(args.benchmark, args.output, args.smoke), report)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
