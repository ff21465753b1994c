"""Routed vs static fallback chains under a deadline sweep.

The static service chain runs the same strongest-first stage order for
every request, no matter how tight the deadline is; the router
(:mod:`repro.routing`) predicts each stage's runtime from the QUBO size
and reorders/rebudgets the chain per request.  This experiment
serves the *same* deterministic mixed MQO + SQL (+ join-graph) workload
through both services at several deadlines and reports, per deadline:

* the deadline-miss rate of each arm,
* the geometric-mean plan-cost ratio routed/static over requests both
  arms answered validly (1.0 = identical quality, <1 = routed cheaper),
* where the routed requests were served, and
* the router's own error accounting (mean per-stage prediction error
  and median regret) pulled from the routed service's ``stats()``.

The acceptance shape: at tight deadlines the routed arm should miss
less (it refuses to lead with stages predicted to blow the budget)
while the cost ratio stays at or below ~1.0 once deadlines are loose
enough for both arms to run their best stage.

Rows contain wall-clock-derived quantities, so unlike most experiments
here the miss counts are *measured*, not derived — identical across
reruns only in the plans themselves.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from repro.experiments.common import ExperimentTable
from repro.harness import extend_table, resolve_workers, run_grid


def _served_by_summary(results) -> str:
    counts: Dict[str, int] = {}
    for result in results:
        counts[result.served_by] = counts.get(result.served_by, 0) + 1
    return " ".join(f"{stage}={n}" for stage, n in sorted(counts.items()))


def _mean_prediction_error(routing_stats: Dict[str, Any]) -> Optional[float]:
    total = 0.0
    count = 0
    for hist in routing_stats.get("prediction_error_ms", {}).values():
        n = int(hist.get("count", 0))
        if n:
            total += float(hist.get("mean", 0.0)) * n
            count += n
    return (total / count) if count else None


def _routed_vs_static_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One deadline: the same workload through a static and a routed service."""
    from repro.replay import replay_stream
    from repro.routing import RoutingPolicy
    from repro.service import OptimizationService

    # sizes deliberately span the discriminating band where the
    # strongest stage takes tens of ms: tight deadlines force a real
    # choice between plan quality and answering in time; a flat draw
    # over 10^6 slots makes the requests distinct
    requests = list(replay_stream(
        params["requests"],
        seed=params["workload_seed"],
        unique=10**6,
        zipf_s=0.0,
        deadline_ms=params["deadline_ms"],
        mqo_fraction=params["mqo_fraction"],
        sql_fraction=params["sql_fraction"],
        queries_range=(6, 12),
        plans_per_query_range=(2, 4),
        relations_range=(5, 9),
        sql_tables_range=(3, 8),
    ))
    static = OptimizationService(seed=seed)
    routed = OptimizationService(seed=seed, routing=RoutingPolicy())
    static_results = [static.optimize(request) for request in requests]
    routed_results = [routed.optimize(request) for request in requests]

    static_miss = sum(1 for r in static_results if r.deadline_exceeded)
    routed_miss = sum(1 for r in routed_results if r.deadline_exceeded)
    # quality is only comparable where both arms actually met the
    # deadline — a plan delivered late is an SLO miss, not a data point
    # about plan quality
    log_ratios = [
        math.log(r.cost / s.cost)
        for s, r in zip(static_results, routed_results)
        if s.valid and r.valid and s.cost > 0 and r.cost > 0
        and not s.deadline_exceeded and not r.deadline_exceeded
    ]
    cost_ratio = (
        math.exp(sum(log_ratios) / len(log_ratios)) if log_ratios else None
    )
    routing_stats = routed.stats().get("routing", {})
    regret = routing_stats.get("regret_ms", {})
    n = len(requests)
    return {
        "deadline ms": params["deadline_ms"],
        "requests": n,
        "static miss": static_miss,
        "routed miss": routed_miss,
        "static miss%": round(static_miss / n, 4) if n else 0.0,
        "routed miss%": round(routed_miss / n, 4) if n else 0.0,
        "cost ratio": None if cost_ratio is None else round(cost_ratio, 4),
        "routed served by": _served_by_summary(routed_results),
        "pred err ms": (
            None
            if (err := _mean_prediction_error(routing_stats)) is None
            else round(err, 3)
        ),
        "regret p50 ms": (
            round(float(regret["p50"]), 3) if regret.get("count") else None
        ),
    }


def run_routed_vs_static(
    seed: int = 29,
    requests: int = 32,
    deadlines: Sequence[float] = (10.0, 25.0, 60.0, 150.0, 400.0),
    mqo_fraction: float = 0.6,
    sql_fraction: float = 0.4,
    *,
    workers: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """Deadline sweep: per-request routing vs the static chain.

    Each grid point replays an identical mixed workload (``requests``
    requests; ``sql_fraction`` arriving as raw SQL text, most of the
    rest MQO instances, remainder join graphs) through two services
    sharing every seed — only the routing policy differs.  ``cost
    ratio`` is the geometric mean of routed/static plan cost over
    requests both arms answered validly *within* the deadline.
    """
    workers = resolve_workers(workers)
    table = ExperimentTable(
        title="Routed vs static chains: deadline-miss rate and plan quality "
        "across a deadline sweep",
        columns=[
            "deadline ms", "requests", "static miss", "routed miss",
            "static miss%", "routed miss%", "cost ratio", "routed served by",
            "pred err ms", "regret p50 ms",
        ],
        notes="cost ratio: geometric-mean routed/static plan cost over "
        "requests both arms answered validly within the deadline "
        "(<= 1.0 means routing never pays quality for its latency wins).",
    )
    points = [
        {
            "deadline_ms": float(deadline),
            "requests": requests,
            "workload_seed": seed + 1000,
            "mqo_fraction": mqo_fraction,
            "sql_fraction": sql_fraction,
        }
        for deadline in deadlines
    ]
    results = run_grid(
        points,
        _routed_vs_static_point,
        experiment="routed-vs-static",
        seed=seed,
        workers=workers,
        cache=cache,
        cache_dir=cache_dir,
    )
    extend_table(table, results, workers)
    return table
