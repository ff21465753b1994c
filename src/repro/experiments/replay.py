"""Replay experiment: Zipfian streams through both scheduler backends.

Production traffic is not the few-hundred-request bursts the serving
benchmarks replay — it is sustained streams whose duplicate structure
is heavy-tailed.  This experiment drives the same lazily-generated
Zipfian stream (:mod:`repro.replay`) through the thread and the process
scheduler and reports, per backend, the quantities capacity planning
needs: throughput, result-cache and coalescing hit rates, admission
rejections, deadline-miss rate, and client-side p50/p95/p99 latency.

Latencies and throughput are wall-clock measurements; the *plans*
served are deterministic (identical content → identical plan on both
backends), but the rows here are timings and rates, so exact numbers
vary run to run.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.experiments.common import ExperimentTable
from repro.harness import extend_table, resolve_workers, run_grid


def _replay_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One backend: stream the whole workload and report its rates."""
    from repro.replay import replay_stream, run_replay
    from repro.server import ServiceConfig, make_scheduler

    stream = replay_stream(
        params["requests"],
        seed=params["stream_seed"],
        unique=params["unique"],
        zipf_s=params["zipf_s"],
        deadline_ms=params["deadline_ms"],
        sql_fraction=params["sql_fraction"],
    )
    with make_scheduler(
        params["backend"],
        config=ServiceConfig(seed=seed),
        workers=params["workers"],
        queue_limit=params["queue_limit"],
    ) as scheduler:
        report = run_replay(
            scheduler, stream, max_in_flight=params["max_in_flight"]
        )
    latency = report.latency_ms
    return {
        "backend": params["backend"],
        "requests": report.requests,
        "throughput rps": round(report.throughput_rps, 1),
        "cache hit%": round(100.0 * report.cache.get("hit_rate", 0.0), 1),
        "coalesce hit%": round(100.0 * report.coalesce.get("hit_rate", 0.0), 1),
        "rejected%": round(100.0 * report.rejection_rate, 2),
        "miss%": round(100.0 * report.deadline_miss_rate, 2),
        "p50 ms": round(float(latency.get("p50", float("nan"))), 2),
        "p95 ms": round(float(latency.get("p95", float("nan"))), 2),
        "p99 ms": round(float(latency.get("p99", float("nan"))), 2),
        "errors": report.errors,
    }


def run_replay_experiment(
    seed: int = 31,
    requests: int = 2000,
    unique: int = 128,
    zipf_s: float = 1.1,
    deadline_ms: float = 200.0,
    sql_fraction: float = 0.2,
    queue_limit: int = 256,
    max_in_flight: int = 64,
    backends: Sequence[str] = ("thread", "process"),
    scheduler_workers: int = 2,
    *,
    workers: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """Stream one Zipfian workload through each scheduler backend.

    ``workers`` parallelizes grid points (harness convention);
    ``scheduler_workers`` is the worker count *inside* each scheduler.
    The full-scale run (10^5+ requests per backend) lives in
    ``benchmarks/run.py replay`` → ``BENCH_replay.json``; this
    experiment is its CI-sized counterpart.
    """
    workers = resolve_workers(workers)
    table = ExperimentTable(
        title="Workload replay: Zipfian request streams through the "
        "thread and process scheduler backends",
        columns=[
            "backend", "requests", "throughput rps", "cache hit%",
            "coalesce hit%", "rejected%", "miss%", "p50 ms", "p95 ms",
            "p99 ms", "errors",
        ],
        notes="Zipf-duplicated stream (lazily generated, never "
        "materialized); latency measured client-side from submission "
        "to completion. Timing rows are wall-clock measurements.",
    )
    points = [
        {
            "backend": backend,
            "requests": int(requests),
            "unique": int(unique),
            "zipf_s": float(zipf_s),
            "deadline_ms": float(deadline_ms),
            "sql_fraction": float(sql_fraction),
            "queue_limit": int(queue_limit),
            "max_in_flight": int(max_in_flight),
            "workers": int(scheduler_workers),
            "stream_seed": seed + 500,
        }
        for backend in backends
    ]
    results = run_grid(
        points,
        _replay_point,
        experiment="replay",
        seed=seed,
        workers=workers,
        cache=cache,
        cache_dir=cache_dir,
    )
    extend_table(table, results, workers)
    return table
