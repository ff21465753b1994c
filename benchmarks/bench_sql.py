"""SQL front-door benchmark: per-stage latency breakdown.

Times every stage of the text-to-plan pipeline separately over a
deterministic generated TPC-H-style workload —

* ``parse``     — lexing + recursive-descent parsing,
* ``estimate``  — binding, canonical algebra, predicate pushdown and
  join-graph extraction (the whole catalog-dependent half),
* ``solve``     — serving the derived problem through the deadline-aware
  service fallback chain,

— each as the mean and median per query over the workload.  Parse and
estimate take the best of ``best_of`` runs per query; a solve runs once
per query on a fresh service, so every solve is a compile-cache miss.

``python benchmarks/run.py sql`` repeats the measurement and writes
``BENCH_sql.json``; ``--smoke`` shrinks the workload for CI.  Any
invalid served plan fails the run.
"""

from __future__ import annotations

import statistics
import time

from repro.service import OptimizationRequest, OptimizationService
from repro.sql import (
    SqlQuery,
    bind,
    canonical_plan,
    extract_query_graph,
    generate_workload,
    parse_sql,
    push_down_predicates,
    tpch_catalog,
)

FULL = {"queries": 24, "best_of": 3, "seed": 11, "deadline_ms": 500.0}
SMOKE = {"queries": 4, "best_of": 1, "seed": 11, "deadline_ms": 500.0}


def measure(smoke: bool):
    """Time parse / estimate / solve per query over one pass of the workload."""
    config = SMOKE if smoke else FULL
    seed = config["seed"]
    catalog = tpch_catalog()
    statements = generate_workload(
        config["queries"], seed=seed, catalog=catalog, min_tables=3, max_tables=6
    )
    texts = [str(statement) for statement in statements]

    stages = {"parse": [], "estimate": [], "solve": []}
    service = OptimizationService(seed=seed)
    valid = 0
    for index, sql in enumerate(texts):
        best_parse = best_estimate = float("inf")
        for _ in range(config["best_of"]):
            start = time.perf_counter()
            statement = parse_sql(sql)
            best_parse = min(best_parse, time.perf_counter() - start)

            start = time.perf_counter()
            bound = bind(statement, catalog)
            optimized = push_down_predicates(canonical_plan(bound))
            extract_query_graph(bound, optimized)
            best_estimate = min(best_estimate, time.perf_counter() - start)
        stages["parse"].append(best_parse)
        stages["estimate"].append(best_estimate)

        start = time.perf_counter()
        result = service.optimize(
            OptimizationRequest(
                request_id=f"bench-{index:03d}",
                kind="sql",
                problem=SqlQuery(sql=sql, catalog=catalog),
                deadline_ms=config["deadline_ms"],
                seed=seed,
            )
        )
        stages["solve"].append(time.perf_counter() - start)
        valid += 1 if result.valid else 0
    stages["end_to_end"] = [sum(parts) for parts in zip(*stages.values())]

    timings = {}
    for stage, seconds in stages.items():
        timings[f"{stage}.mean_ms"] = 1e3 * statistics.fmean(seconds)
        timings[f"{stage}.p50_ms"] = 1e3 * statistics.median(seconds)
        print(
            f"{stage:10} mean={timings[f'{stage}.mean_ms']:.3f} ms "
            f"p50={timings[f'{stage}.p50_ms']:.3f} ms"
        )
    print(f"valid plans: {valid}/{len(texts)}")
    failure = None if valid == len(texts) else f"{len(texts) - valid} invalid plan(s)"
    return timings, {"queries": len(texts), "valid_plans": valid}, failure
