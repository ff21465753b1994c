"""Routing benchmark: routed vs static chains per deadline.

Runs the ``routed-vs-static`` experiment (the same sweep behind
``python -m repro experiments routed-vs-static``) — an identical mixed
MQO + SQL + join-graph workload served through a static fallback chain
and through the deadline-aware router — once per seed of the config.

Miss counts are wall-clock measurements, so one seed is noise; a trial
records the routed and static miss totals per seed and over all seeds,
the number of seeds on which routing missed fewer deadlines, and the
worst geometric-mean plan-cost ratio over requests both arms answered
in time.  The acceptance shape for the router: fewer total misses than
the static chain at a cost ratio at (or near) 1.0.

``python benchmarks/run.py routing`` repeats the sweep and writes
``BENCH_routing.json``; a full trial fails if routing missed more
deadlines than the static chain.  ``--smoke`` runs the first seed
only, with two deadlines and a handful of requests, and checks
structural health (rows present, a cost ratio measured), not numbers.
"""

from __future__ import annotations

import math

from repro.experiments.routed_vs_static import run_routed_vs_static

FULL = {
    "requests": 32,
    "deadlines_ms": (10.0, 25.0, 60.0, 150.0, 400.0),
    "seeds": tuple(range(29, 39)),
}
SMOKE = {"requests": 8, "deadlines_ms": (25.0, 150.0), "seeds": (29,)}


def _seed_summary(seed: int, rows) -> dict:
    ratios = [row["cost ratio"] for row in rows if row["cost ratio"] is not None]
    return {
        "seed": seed,
        "total_requests": sum(int(row["requests"]) for row in rows),
        "static_deadline_miss": sum(int(row["static miss"]) for row in rows),
        "routed_deadline_miss": sum(int(row["routed miss"]) for row in rows),
        "max_cost_ratio": max(ratios) if ratios else None,
    }


def measure(smoke: bool):
    """One sweep over every seed: miss counts per seed and in total."""
    config = SMOKE if smoke else FULL
    timings = {}
    per_seed = []
    pred_errs = []
    for seed in config["seeds"]:
        table = run_routed_vs_static(
            seed=seed,
            requests=config["requests"],
            deadlines=config["deadlines_ms"],
            cache=False,
        )
        print(f"seed {seed}")
        print(table.format())
        summary = _seed_summary(seed, table.rows)
        per_seed.append(summary)
        timings[f"seed{seed}.static_miss"] = summary["static_deadline_miss"]
        timings[f"seed{seed}.routed_miss"] = summary["routed_deadline_miss"]
        pred_errs += [row["pred err ms"] for row in table.rows if row["pred err ms"] is not None]

    static_miss = sum(s["static_deadline_miss"] for s in per_seed)
    routed_miss = sum(s["routed_deadline_miss"] for s in per_seed)
    ratios = [s["max_cost_ratio"] for s in per_seed if s["max_cost_ratio"] is not None]
    timings["static_miss"] = static_miss
    timings["routed_miss"] = routed_miss
    timings["mean_pred_err_ms"] = sum(pred_errs) / max(1, len(pred_errs))
    detail = {
        "per_seed": per_seed,
        "total_requests": sum(s["total_requests"] for s in per_seed),
        "routing_wins": sum(
            s["routed_deadline_miss"] < s["static_deadline_miss"] for s in per_seed
        ),
        "routing_losses": sum(
            s["routed_deadline_miss"] > s["static_deadline_miss"] for s in per_seed
        ),
        "max_cost_ratio": max(ratios) if ratios else None,
    }
    print(
        f"\noverall over {len(per_seed)} seed(s): routing missed fewer deadlines "
        f"on {detail['routing_wins']} (more on {detail['routing_losses']}); "
        f"routed {routed_miss}/{detail['total_requests']} vs static "
        f"{static_miss}/{detail['total_requests']}; "
        f"worst cost ratio {detail['max_cost_ratio']}"
    )

    if smoke:
        finite = ratios and all(math.isfinite(ratio) for ratio in ratios)
        failure = None if finite else f"no finite cost ratio measured: {ratios}"
    elif routed_miss > static_miss:
        failure = f"routing missed {routed_miss} deadlines, the static chain {static_miss}"
    else:
        failure = None
    return timings, detail, failure
