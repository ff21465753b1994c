"""Workload-replay benchmark: 10^5+ Zipfian requests per backend.

Streams the lazily-generated Zipfian request mix (:mod:`repro.replay`)
through the thread and the process scheduler backend at full scale:
steady-state cache and coalescing hit rates under a heavy-tailed
duplicate distribution, admission rejections, deadline misses, invalid
plans, and client-side tail latency over a hundred thousand requests.

The stream is never materialized: requests are built on demand from
derived seeds, so memory stays constant at ``--max-in-flight``
outstanding futures regardless of ``--requests``.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py
    PYTHONPATH=src python benchmarks/bench_replay.py \
        --requests 1000000 --backends thread --rate 2000

``--smoke`` shrinks the stream to 10^3 requests for CI; rates and
latencies are wall-clock measurements, so smoke runs only assert
structural health (all requests answered, no errors, no invalid
plans), not numbers.

Writes ``BENCH_replay.json`` at the repository root (a smoke run writes
only to an explicit ``--output``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from provenance import report_path, write_report  # noqa: E402

from repro.replay import replay_stream, run_replay  # noqa: E402
from repro.server import ServiceConfig, make_scheduler  # noqa: E402


def run_once(args, backend: str, requests: int, unique: int) -> dict:
    """Replay the stream once on a fresh scheduler; return the report."""
    stream = replay_stream(
        requests,
        seed=args.seed,
        unique=unique,
        zipf_s=args.zipf_s,
        deadline_ms=args.deadline_ms,
        mqo_fraction=args.mqo_fraction,
        sql_fraction=args.sql_fraction,
    )
    with make_scheduler(
        backend,
        config=ServiceConfig(seed=args.seed),
        workers=args.workers,
        queue_limit=args.queue_limit,
    ) as scheduler:
        report = run_replay(
            scheduler,
            stream,
            rate=args.rate,
            max_in_flight=args.max_in_flight,
            progress=lambda n: print(f"  {backend}: {n} submitted...", flush=True),
            progress_every=10_000,
        )
    latency = report.latency_ms
    print(
        f"{backend:>7s}: {report.requests} requests in "
        f"{report.wall_seconds:.1f}s ({report.throughput_rps:.1f} req/s), "
        f"p50={latency.get('p50', 0.0):.1f} ms p99={latency.get('p99', 0.0):.1f} ms, "
        f"cache {report.cache.get('hit_rate', 0.0):.1%}, "
        f"coalesce {report.coalesce.get('hit_rate', 0.0):.1%}, "
        f"rejected {report.rejection_rate:.2%}, "
        f"missed {report.deadline_miss_rate:.2%}, errors {report.errors}, "
        f"invalid {report.invalid}"
    )
    return report.to_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=100_000)
    parser.add_argument("--unique", type=int, default=512)
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument(
        "--backends", default="thread,process",
        help="comma-separated scheduler backends to sweep",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop arrival rate (req/s); default closed loop")
    parser.add_argument("--max-in-flight", type=int, default=256)
    parser.add_argument("--queue-limit", type=int, default=512)
    parser.add_argument("--deadline-ms", type=float, default=200.0)
    parser.add_argument("--mqo-fraction", type=float, default=0.5)
    parser.add_argument("--sql-fraction", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny stream for CI: 10^3 requests, 64 unique templates",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default: BENCH_replay.json for full "
        "runs; a smoke run writes only when this is given)",
    )
    args = parser.parse_args(argv)

    requests = 1_000 if args.smoke else args.requests
    unique = min(args.unique, 64) if args.smoke else args.unique
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    print(
        f"replay: {requests} requests ({unique} unique templates, "
        f"zipf s={args.zipf_s:g}) per backend: {', '.join(backends)}"
    )

    runs = {backend: run_once(args, backend, requests, unique) for backend in backends}

    config = {
        "requests": requests,
        "unique": unique,
        "zipf_s": args.zipf_s,
        "rate": args.rate,
        "workers": args.workers,
        "max_in_flight": args.max_in_flight,
        "queue_limit": args.queue_limit,
        "deadline_ms": args.deadline_ms,
        "mqo_fraction": args.mqo_fraction,
        "sql_fraction": args.sql_fraction,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    path = report_path(args.output, args.smoke, "BENCH_replay.json")
    write_report(path, "replay", config, {"backends": runs})
    healthy = all(
        run["errors"] == 0 and run["invalid"] == 0 and run["ok"] > 0
        and run["requests"] == requests
        for run in runs.values()
    )
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main())
