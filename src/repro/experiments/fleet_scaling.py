"""Fleet-vs-single-annealer scaling on decomposition-sized instances.

The fleet-aware solver mode promises two things at once: *scale-out*
(independent shards anneal concurrently across devices) and
*determinism* (per-(device spec, shard content) seeds make the result
independent of fleet size and dispatch order).  This experiment checks
both on MQO instances well past one device's capacity: every grid
point solves the same instance with a single-device fleet and with an
N-device fleet, asserts the energies and assignments are bit-identical,
and reports the wall-clock ratio.

On a single-core host the speedup hovers around 1 — shard anneals are
CPU-bound, so concurrent dispatch cannot beat the GIL without real
cores (the same caveat recorded for the process serving backend in
PR 7); the determinism column is the load-bearing result there.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

from repro.experiments.common import ExperimentTable
from repro.harness import extend_table, resolve_workers, run_grid


def _fleet_scaling_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One (instance, fleet size): solve with 1 and with N devices."""
    from repro.annealers import AnnealerFleet
    from repro.hybrid import DecomposingSolver
    from repro.mqo import mqo_to_bqm, random_mqo_problem

    bqm = mqo_to_bqm(
        random_mqo_problem(
            params["queries"], params["plans_per_query"], seed=params["instance_seed"]
        )
    )

    def _solve(fleet_size: int):
        solver = DecomposingSolver(
            fleet=AnnealerFleet.homogeneous(fleet_size, m=params["m"], t=params["t"]),
            restarts=params["restarts"],
            max_rounds=params["max_rounds"],
        )
        start = time.perf_counter()
        result = solver.solve(bqm, seed=seed)
        return result, time.perf_counter() - start

    single, single_wall = _solve(1)
    fleet, fleet_wall = _solve(params["fleet_size"])
    identical = (
        single.sample == fleet.sample
        and abs(single.energy - fleet.energy) < 1e-12
    )
    return {
        "queries": params["queries"],
        "variables": bqm.num_variables,
        "fleet size": params["fleet_size"],
        "energy": round(fleet.energy, 6),
        "identical": identical,
        "subproblems": fleet.info.get("subproblems"),
        "single wall s": round(single_wall, 3),
        "fleet wall s": round(fleet_wall, 3),
        "speedup": round(single_wall / fleet_wall, 3) if fleet_wall > 0 else None,
    }


def run_fleet_scaling(
    seed: int = 37,
    queries: Sequence[int] = (12, 18),
    plans_per_query: int = 3,
    fleet_sizes: Sequence[int] = (2, 4),
    m: int = 4,
    t: int = 4,
    restarts: int = 2,
    max_rounds: int = 6,
    *,
    workers: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """Sweep fleet sizes over decomposition-sized MQO instances.

    Every row compares an N-device fleet against a single device on the
    same instance with the same root seed; ``identical`` must be True
    everywhere (it is the fleet determinism contract, also pinned by
    the fleet-size invariance tests), and ``speedup`` shows what the
    concurrent dispatch buys on the current host.
    """
    workers = resolve_workers(workers)
    table = ExperimentTable(
        title="Fleet vs single annealer: bit-identical shards, concurrent dispatch",
        columns=[
            "queries", "variables", "fleet size", "energy", "identical",
            "subproblems", "single wall s", "fleet wall s", "speedup",
        ],
        notes="identical: fleet-of-N assignment and energy equal the "
        "single-device run bit for bit (per-(device spec, shard) seed "
        "derivation). Wall columns are measurements; speedup ~1 on "
        "single-core hosts where shard anneals serialize on the GIL.",
    )
    points = [
        {
            "queries": int(q),
            "plans_per_query": int(plans_per_query),
            "fleet_size": int(size),
            "m": int(m),
            "t": int(t),
            "restarts": int(restarts),
            "max_rounds": int(max_rounds),
            "instance_seed": seed + 100 + int(q),
        }
        for q in queries
        for size in fleet_sizes
    ]
    results = run_grid(
        points,
        _fleet_scaling_point,
        experiment="fleet-scaling",
        seed=seed,
        workers=workers,
        cache=cache,
        cache_dir=cache_dir,
    )
    extend_table(table, results, workers)
    for result in results:
        for row in result.rows:
            if not row.get("identical"):
                raise AssertionError(
                    f"fleet determinism violated at {result.params}: {row}"
                )
    return table
