"""Standalone SQL front-door benchmark: per-stage latency breakdown.

Times every stage of the text-to-plan pipeline separately over a
deterministic generated TPC-H-style workload —

* ``parse``     — lexing + recursive-descent parsing,
* ``estimate``  — binding, canonical algebra, predicate pushdown and
  join-graph extraction (the whole catalog-dependent half),
* ``solve``     — serving the derived problem through the deadline-aware
  service fallback chain,

— and writes the measurements to ``BENCH_sql.json`` at the repository
root so successive PRs can track where end-to-end SQL latency goes.

Usage::

    PYTHONPATH=src python benchmarks/bench_sql.py
    PYTHONPATH=src python benchmarks/bench_sql.py \
        --queries 32 --repeats 5 --seed 11
    PYTHONPATH=src python benchmarks/bench_sql.py --smoke

``--smoke`` shrinks the workload for CI: a handful of queries, one
repeat, still producing the full report shape.  A smoke run writes its
report only when ``--output`` is given.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from provenance import report_path, write_report  # noqa: E402

from repro.service import OptimizationRequest, OptimizationService  # noqa: E402
from repro.sql import (  # noqa: E402
    SqlQuery,
    bind,
    canonical_plan,
    extract_query_graph,
    generate_workload,
    parse_sql,
    push_down_predicates,
    tpch_catalog,
)


def _stats(samples_s) -> dict:
    """Millisecond summary of a list of per-query second timings."""
    ms = [1000.0 * s for s in samples_s]
    return {
        "mean_ms": round(statistics.fmean(ms), 4),
        "p50_ms": round(statistics.median(ms), 4),
        "max_ms": round(max(ms), 4),
        "total_ms": round(sum(ms), 4),
    }


def run_benchmark(
    queries: int, repeats: int, seed: int, deadline_ms: float
) -> dict:
    """Time parse / estimate / solve per query; return the report body."""
    catalog = tpch_catalog()
    statements = generate_workload(
        queries, seed=seed, catalog=catalog, min_tables=3, max_tables=6
    )
    texts = [str(statement) for statement in statements]

    parse_s, estimate_s, solve_s = [], [], []
    service = OptimizationService(seed=seed)
    solved = 0
    for index, sql in enumerate(texts):
        best_parse = best_estimate = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            statement = parse_sql(sql)
            best_parse = min(best_parse, time.perf_counter() - start)

            start = time.perf_counter()
            bound = bind(statement, catalog)
            optimized = push_down_predicates(canonical_plan(bound))
            extract_query_graph(bound, optimized)
            best_estimate = min(best_estimate, time.perf_counter() - start)
        parse_s.append(best_parse)
        estimate_s.append(best_estimate)

        start = time.perf_counter()
        result = service.optimize(
            OptimizationRequest(
                request_id=f"bench-{index:03d}",
                kind="sql",
                problem=SqlQuery(sql=sql, catalog=catalog),
                deadline_ms=deadline_ms,
                seed=seed,
            )
        )
        solve_s.append(time.perf_counter() - start)
        solved += 1 if result.valid else 0

    total_s = [p + e + s for p, e, s in zip(parse_s, estimate_s, solve_s)]
    return {
        "queries": len(texts),
        "valid_plans": solved,
        "stages": {
            "parse": _stats(parse_s),
            "estimate": _stats(estimate_s),
            "solve": _stats(solve_s),
            "end_to_end": _stats(total_s),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=24)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="parse/estimate repeats per query (best-of)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--deadline-ms", type=float, default=500.0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 4 queries, 1 repeat, same report shape",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default: BENCH_sql.json for full "
        "runs; a smoke run writes only when this is given)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.queries, args.repeats = 4, 1

    body = run_benchmark(args.queries, args.repeats, args.seed, args.deadline_ms)
    for stage, stats in body["stages"].items():
        print(
            f"{stage:10} mean={stats['mean_ms']:.3f} ms "
            f"p50={stats['p50_ms']:.3f} ms max={stats['max_ms']:.3f} ms"
        )
    print(f"valid plans: {body['valid_plans']}/{body['queries']}")

    config = {
        "queries": args.queries,
        "repeats": args.repeats,
        "seed": args.seed,
        "deadline_ms": args.deadline_ms,
        "smoke": args.smoke,
    }
    path = report_path(args.output, args.smoke, "BENCH_sql.json")
    write_report(path, "sql", config, body)
    return 0 if body["valid_plans"] == body["queries"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
