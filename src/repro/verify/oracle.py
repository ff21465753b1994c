"""Exact ground truth for small verification instances.

The oracle computes, per corpus case:

* the **ground energy** of the case's QUBO by brute-force enumeration
  (:func:`repro.qubo.exact.brute_force_minimum`) when the model is at
  most :data:`DEFAULT_ENERGY_LIMIT` variables;
* the **domain optimum** — exhaustive MQO plan selection (cheapest
  cost, Eq. 25) or the cheapest ``C_out`` join permutation — which is
  defined even when the QUBO is too large to enumerate;
* for join ordering additionally the minimum of the direct encoding's
  **surrogate objective** over all permutations, which the QUBO ground
  energy must equal.

The computed record is cross-checked on the spot (the ground state
must decode to a *valid* plan, and the decoded optimum must agree with
the domain optimum), so a broken encoding is caught while the oracle
is being built, before any solver runs.

Records are cached content-addressed under ``results/.cache`` (the
harness :class:`~repro.harness.ResultCache`); the key hashes the BQM's
full coefficient table, so any encoding change automatically misses
the stale entry.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Dict, List, Optional

from repro.annealers.device import bqm_fingerprint
from repro.harness import ResultCache, resolve_cache_dir
from repro.qubo.exact import brute_force_minimum
from repro.verify.invariants import Violation

__all__ = ["DEFAULT_ENERGY_LIMIT", "compute_oracle"]

#: largest model the energy oracle will enumerate (2^20 assignments)
DEFAULT_ENERGY_LIMIT = 20

#: largest join graph whose permutations are enumerated exhaustively
MAX_ORACLE_RELATIONS = 8

_ORACLE_EXPERIMENT = "verify_oracle"
_ENERGY_ATOL = 1e-6


def _oracle_mqo(problem, builder, bqm, energy_limit: int) -> Dict[str, Any]:
    """Exhaustive MQO optimum + (when feasible) QUBO ground truth."""
    from repro.mqo.solvers import solve_exhaustive

    record: Dict[str, Any] = {"violations": []}
    exact = solve_exhaustive(problem)
    record["cost"] = float(exact.cost)
    record["plan"] = {"selected_plans": list(exact.selected_plans)}

    if bqm.num_variables <= energy_limit:
        ground = brute_force_minimum(bqm)
        record["energy"] = float(ground.energy)
        decoded = builder.decode(dict(ground.sample))
        if not decoded.valid:
            record["violations"].append(
                Violation(
                    invariant="ground-state-validity",
                    subject="oracle:mqo",
                    message=(
                        "the QUBO ground state decodes to an invalid plan "
                        "selection (penalty weights too small?)"
                    ),
                    details={"energy": float(ground.energy)},
                ).to_dict()
            )
        elif abs(decoded.cost - exact.cost) > _ENERGY_ATOL:
            record["violations"].append(
                Violation(
                    invariant="oracle-cross-check",
                    subject="oracle:mqo",
                    message=(
                        f"QUBO ground state decodes to cost {decoded.cost:.9g} "
                        f"but the exhaustive optimum costs {exact.cost:.9g}"
                    ),
                    details={
                        "decoded_cost": float(decoded.cost),
                        "exhaustive_cost": float(exact.cost),
                    },
                ).to_dict()
            )
    return record


def _oracle_join(graph, builder, bqm, energy_limit: int) -> Dict[str, Any]:
    """Cheapest C_out permutation + minimum surrogate objective."""
    from repro.joinorder.cost import cout_cost

    record: Dict[str, Any] = {"violations": []}
    names = graph.relation_names
    best_cost: Optional[float] = None
    best_order: Optional[List[str]] = None
    best_surrogate: Optional[float] = None
    for perm in itertools.permutations(names):
        cost = cout_cost(graph, list(perm))
        if best_cost is None or cost < best_cost:
            best_cost, best_order = float(cost), list(perm)
        surrogate = builder.surrogate_objective(list(perm))
        if best_surrogate is None or surrogate < best_surrogate:
            best_surrogate = float(surrogate)
    record["cost"] = best_cost
    record["plan"] = {"order": best_order}
    record["surrogate"] = best_surrogate

    if bqm.num_variables <= energy_limit:
        ground = brute_force_minimum(bqm)
        record["energy"] = float(ground.energy)
        try:
            builder.decode(dict(ground.sample))
        except Exception:
            record["violations"].append(
                Violation(
                    invariant="ground-state-validity",
                    subject="oracle:join_order",
                    message=(
                        "the QUBO ground state is not a valid permutation "
                        "matrix (one-hot penalty too small?)"
                    ),
                    details={"energy": float(ground.energy)},
                ).to_dict()
            )
        else:
            if abs(ground.energy - best_surrogate) > _ENERGY_ATOL:
                record["violations"].append(
                    Violation(
                        invariant="oracle-cross-check",
                        subject="oracle:join_order",
                        message=(
                            f"ground energy {ground.energy:.9g} != minimum "
                            f"surrogate objective {best_surrogate:.9g}"
                        ),
                        details={
                            "ground_energy": float(ground.energy),
                            "min_surrogate": best_surrogate,
                        },
                    ).to_dict()
                )
    return record


def compute_oracle(
    case,
    energy_limit: int = DEFAULT_ENERGY_LIMIT,
    cache: bool = True,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Ground truth for one corpus case, with content-addressed caching.

    Returns a JSON-ready record with (subsets of) the keys ``energy``
    (QUBO ground energy), ``cost`` (domain optimum), ``plan``,
    ``surrogate`` (join only) and ``violations`` (cross-check failures
    detected while building the record).
    """
    from repro.verify.corpus import build_case

    built = build_case(case)
    key_material = {
        "case": dict(case.params),
        "kind": case.kind,
        "bqm": bqm_fingerprint(built.bqm),
        "energy_limit": int(energy_limit),
    }
    key = hashlib.sha256(
        json.dumps(key_material, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    store = ResultCache(resolve_cache_dir(cache_dir)) if cache else None
    if store is not None:
        hit = store.get(_ORACLE_EXPERIMENT, key)
        if hit is not None and hit["rows"]:
            record = dict(hit["rows"][0])
            record["cached"] = True
            return record

    if case.kind == "mqo":
        record = _oracle_mqo(built.problem, built.builder, built.bqm, energy_limit)
    else:
        record = _oracle_join(built.problem, built.builder, built.bqm, energy_limit)
    record["num_variables"] = built.bqm.num_variables

    if store is not None:
        store.put(_ORACLE_EXPERIMENT, key, [record], 0.0, dict(case.params), 0)
    record = dict(record)
    record["cached"] = False
    return record
