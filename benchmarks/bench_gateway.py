"""HTTP gateway round-trip microbenchmark.

Measures the full front-door path — HTTP parse, request-model
validation, scheduler submit, solve, JSON response — against a gateway
running on an ephemeral port, for each executor backend.  The point of
comparison with ``BENCH_replay.json`` (which drives the scheduler
directly) is the *gateway overhead*: how many milliseconds the
stdlib-asyncio transport adds on top of a bare ``scheduler.submit``.

Clients run on ``--clients`` threads with one keep-alive workload slice
each, so the asyncio loop multiplexes concurrent connections the way a
real deployment would.

Usage::

    PYTHONPATH=src python benchmarks/bench_gateway.py
    PYTHONPATH=src python benchmarks/bench_gateway.py \
        --requests 32 --clients 4 --backends thread,process

Writes ``BENCH_gateway.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from provenance import provenance_block  # noqa: E402

from repro.replay import replay_stream  # noqa: E402
from repro.serialization import to_jsonable  # noqa: E402
from repro.server import ServiceConfig, make_scheduler, serve_in_background  # noqa: E402
from repro.service import request_to_dict  # noqa: E402
from repro.service.metrics import percentile  # noqa: E402


def _post(url: str, payload: dict) -> tuple[int, dict, float]:
    """One JSON POST; returns (status, body, round-trip seconds)."""
    data = json.dumps(to_jsonable(payload)).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            body = json.loads(resp.read().decode("utf-8"))
            return resp.status, body, time.perf_counter() - start
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read().decode("utf-8"))
        return exc.code, body, time.perf_counter() - start


def run_once(requests, backend: str, workers: int, clients: int, seed: int) -> dict:
    """Serve the workload over HTTP once; return measurements."""
    payloads = [request_to_dict(request) for request in requests]
    scheduler = make_scheduler(
        backend, config=ServiceConfig(seed=seed), workers=workers
    )
    with serve_in_background(scheduler) as handle:
        url = f"{handle.url}/optimize"
        slices = [payloads[i::clients] for i in range(clients)]

        def _client(worklist):
            measurements = []
            for payload in worklist:
                status, body, seconds = _post(url, payload)
                measurements.append(
                    (status, bool(body.get("valid")), seconds * 1000.0)
                )
            return measurements

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            per_client = list(pool.map(_client, slices))
        wall_s = time.perf_counter() - start
        stats = scheduler.stats()

    flat = [m for worklist in per_client for m in worklist]
    round_trips = [ms for _status, _valid, ms in flat]
    service_latency = stats["histograms"].get("latency_ms", {})
    coalesce = stats["scheduler"]["coalesce"]
    return {
        "backend": backend,
        "workers": workers,
        "clients": clients,
        "wall_s": round(wall_s, 4),
        "requests_per_s": round(len(flat) / wall_s, 2),
        "http_ok": sum(1 for status, _valid, _ms in flat if status == 200),
        "valid": sum(1 for _status, valid, _ms in flat if valid),
        "round_trip_ms": {
            "p50": round(percentile(round_trips, 50.0), 3),
            "p95": round(percentile(round_trips, 95.0), 3),
            "max": round(max(round_trips), 3),
        },
        # gateway overhead = client round-trip minus in-service latency
        "service_p50_ms": service_latency.get("p50"),
        "coalesce": {"hits": coalesce["hits"], "misses": coalesce["misses"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--backends", default="thread,process",
        help="comma-separated executor backends to sweep",
    )
    parser.add_argument("--deadline-ms", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_gateway.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    # a flat draw over 1.5x as many slots as requests repeats ~27% of
    # them, enough for the coalescing and result caches to show
    requests = list(replay_stream(
        args.requests,
        seed=args.seed,
        unique=max(1, args.requests * 3 // 2),
        zipf_s=0.0,
        deadline_ms=args.deadline_ms,
        sql_fraction=0.0,
    ))
    print(
        f"workload: {len(requests)} requests over HTTP, {args.clients} client "
        f"connection(s), deadline {args.deadline_ms:g} ms, {os.cpu_count()} cpu(s)"
    )

    runs = []
    for backend in (b.strip() for b in args.backends.split(",") if b.strip()):
        measurement = run_once(
            requests, backend, args.workers, args.clients, args.seed
        )
        runs.append(measurement)
        rt = measurement["round_trip_ms"]
        print(
            f"{backend:>7s} workers={args.workers}: "
            f"{measurement['requests_per_s']:.1f} req/s over HTTP, "
            f"round-trip p50={rt['p50']:.1f} ms p95={rt['p95']:.1f} ms, "
            f"{measurement['http_ok']}/{len(requests)} ok, "
            f"coalesced {measurement['coalesce']['hits']}"
        )

    report = {
        "benchmark": "gateway",
        "config": {
            "requests": args.requests,
            "clients": args.clients,
            "workers": args.workers,
            "deadline_ms": args.deadline_ms,
            "seed": args.seed,
        },
        "provenance": provenance_block(),
        "runs": runs,
    }
    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    return 0 if all(r["http_ok"] == args.requests for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
