"""Standalone routing benchmark: routed vs static chains per deadline.

Runs the ``routed-vs-static`` experiment (the same sweep behind
``python -m repro experiments routed-vs-static``) — an identical mixed
MQO + SQL + join-graph workload served through a static fallback chain
and through the deadline-aware router — once per seed in
:data:`SEEDS`, and writes the per-(seed, deadline) measurements to
``BENCH_routing.json`` at the repository root so
successive PRs can track the router's deadline-miss and plan-quality
behaviour.

Miss counts are wall-clock measurements, so one run is noise; the
summary therefore carries the per-seed routed/static miss totals, the
number of seeds on which routing missed fewer deadlines, and the worst
geometric-mean plan-cost ratio over requests both arms answered in
time.  The acceptance shape for the router: fewer total misses than
the static chain at a cost ratio at (or near) 1.0.

Usage::

    PYTHONPATH=src python benchmarks/bench_routing.py
    PYTHONPATH=src python benchmarks/bench_routing.py --smoke

``--smoke`` runs the first seed only, with two deadlines and a handful
of requests, for CI; it asserts structural health (rows present,
ratios finite), not exact numbers, and writes its report only when
``--output`` is given.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from provenance import report_path, write_report  # noqa: E402

from repro.experiments.routed_vs_static import run_routed_vs_static  # noqa: E402

#: seeds of the full sweep (each draws its own workload)
SEEDS = tuple(range(29, 39))


def _seed_summary(seed: int, rows) -> dict:
    ratios = [row["cost ratio"] for row in rows if row["cost ratio"] is not None]
    return {
        "seed": seed,
        "total_requests": sum(int(row["requests"]) for row in rows),
        "static_deadline_miss": sum(int(row["static miss"]) for row in rows),
        "routed_deadline_miss": sum(int(row["routed miss"]) for row in rows),
        "max_cost_ratio": max(ratios) if ratios else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument(
        "--deadlines", default="10,25,60,150,400",
        help="comma-separated deadline sweep in milliseconds",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sweep for CI: 1 seed, 2 deadlines, 8 requests",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default: BENCH_routing.json for full "
        "runs; a smoke run writes only when this is given)",
    )
    args = parser.parse_args(argv)

    seeds = SEEDS[:1] if args.smoke else SEEDS
    requests = 8 if args.smoke else args.requests
    deadlines = (
        (25.0, 150.0)
        if args.smoke
        else tuple(float(d) for d in args.deadlines.split(",") if d.strip())
    )
    rows = []
    per_seed = []
    for seed in seeds:
        table = run_routed_vs_static(
            seed=seed, requests=requests, deadlines=deadlines, cache=False
        )
        print(f"seed {seed}")
        print(table.format())
        rows += [{"seed": seed, **row} for row in table.rows]
        per_seed.append(_seed_summary(seed, table.rows))

    total = sum(s["total_requests"] for s in per_seed)
    static_miss = sum(s["static_deadline_miss"] for s in per_seed)
    routed_miss = sum(s["routed_deadline_miss"] for s in per_seed)
    ratios = [s["max_cost_ratio"] for s in per_seed if s["max_cost_ratio"] is not None]
    pred_errs = [row["pred err ms"] for row in rows if row["pred err ms"] is not None]
    summary = {
        "seeds": list(seeds),
        "requests_per_deadline": requests,
        "per_seed": per_seed,
        "routing_wins": sum(
            1 for s in per_seed
            if s["routed_deadline_miss"] < s["static_deadline_miss"]
        ),
        "routing_losses": sum(
            1 for s in per_seed
            if s["routed_deadline_miss"] > s["static_deadline_miss"]
        ),
        "median_static_miss": statistics.median(
            s["static_deadline_miss"] for s in per_seed
        ),
        "median_routed_miss": statistics.median(
            s["routed_deadline_miss"] for s in per_seed
        ),
        "total_requests": total,
        "static_deadline_miss": static_miss,
        "routed_deadline_miss": routed_miss,
        "static_miss_rate": static_miss / total if total else 0.0,
        "routed_miss_rate": routed_miss / total if total else 0.0,
        "max_cost_ratio": max(ratios) if ratios else None,
        "mean_pred_err_ms": sum(pred_errs) / max(1, len(pred_errs)),
    }
    print(
        f"\noverall over {len(seeds)} seed(s): routing missed fewer deadlines "
        f"on {summary['routing_wins']} (more on {summary['routing_losses']}); "
        f"routed {routed_miss}/{total} vs static {static_miss}/{total}; "
        f"worst cost ratio {summary['max_cost_ratio']}"
    )

    config = {
        "requests": requests,
        "deadlines_ms": list(deadlines),
        "seeds": list(seeds),
        "smoke": args.smoke,
    }
    path = report_path(args.output, args.smoke, "BENCH_routing.json")
    write_report(path, "routing", config, {"rows": rows, "summary": summary})
    if args.smoke:
        # structural health only: rows present and quality ratio finite
        return 0 if rows and ratios else 1
    return 0 if routed_miss <= static_miss else 1


if __name__ == "__main__":
    raise SystemExit(main())
