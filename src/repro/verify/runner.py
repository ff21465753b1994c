"""The differential sweep, driven by one registry of point types and
planted bugs.

Execution goes through :func:`repro.harness.run_grid`, so sweeps fan
out over processes with the same deterministic per-point seeding as
the experiment drivers: rows are bit-identical for any ``--workers``
value, which is what makes ``--json`` output diffable across runs.

:data:`POINT_TYPES` holds one :class:`PointType` per kind of grid
point — its generator over the corpus, its check, and whether its rows
count per solver in the summaries:

``solver``      one registry solver on one case vs the oracle: reported
                vs recomputed energy, ground-energy and optimum-cost bounds
``chain``       the service fallback chain on one case under an ample
                deadline: a valid plan within the same bounds
``invariants``  the per-case catalog: encoding round-trips, ``fix_variable``
                conservation and the array clamp, decode consistency,
                embedding validity
``gate``        transpiled-circuit statevector equivalence
``sql``         ``sql-plan-consistency`` on generated TPC-H-style queries
``routing``     ``routing-regret`` of the deadline-aware router on one case
``shard``       ``shard-reconciliation`` of the fleet merge on one case

:data:`PLANTED_BUGS` holds one :class:`PlantedBug` per known bug the
harness plants in itself: the point types it targets, the invariant it
must trip, and the :class:`Plant` that turns it on.  Every check reads
its knobs from a :class:`Plant`; the honest sweep uses ``Plant()``.
``python -m repro verify --inject offset`` plants one bug and must exit
non-zero; ``--inject all`` plants each on its targets and exits zero
only if every one was caught on every target.  Adding an invariant
means adding one registry entry with its planted bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.harness import run_grid
from repro.routing.model import SolverCostModel
from repro.verify.corpus import Case, build_case, build_corpus
from repro.verify.invariants import (
    Violation,
    check_compiled_energy_consistency,
    check_embedding_validity,
    check_fix_variable_conservation,
    check_ising_round_trip,
    check_join_decode_consistency,
    check_matrix_energy,
    check_mqo_decode_consistency,
    check_qubo_round_trip,
    check_routing_feasibility,
    check_shard_reconciliation,
    check_sql_plan_consistency,
    check_transpile_equivalence,
    random_assignments,
    random_circuit,
)
from repro.verify.oracle import DEFAULT_ENERGY_LIMIT, compute_oracle
from repro.verify.report import VerificationReport, summarize

__all__ = [
    "INJECTABLE_BUGS",
    "PLANTED_BUGS",
    "POINT_TYPES",
    "BugProof",
    "Plant",
    "PlantedBug",
    "PointType",
    "prove_planted_bug",
    "run_verification",
    "sweep_solver_names",
]

_EXPERIMENT = "verify_differential"
_ENERGY_ATOL = 1e-6
_CHAIN_DEADLINE_S = 60.0

#: registry aliases to drop from the default sweep (same object twice)
_ALIASES = {"exhaustive"}

#: tighter variable caps than the solvers' own limits, keeping the
#: statevector solvers off cases where simulation would dominate the
#: sweep's wall-clock (2^n amplitudes per energy evaluation); ``exact``
#: is capped at the oracle's brute-force range, where its optimality
#: claim can actually be checked
_SWEEP_LIMITS = {"vqe": 10, "qaoa": 10, "exact-eigen": 16, "exact": 20}

#: deadline sweep (ms) for routing points: tight budgets where only
#: the cheap stages fit, through ample ones where everything does
_ROUTING_DEADLINES = (0.2, 0.5, 2.5, 10.0, 100.0)


def sweep_solver_names() -> List[str]:
    """Registry solvers included in a default sweep (aliases deduped)."""
    from repro.hybrid.registry import solver_names

    return [name for name in solver_names() if name not in _ALIASES]


# ----------------------------------------------------------------------
# Plants: the knobs a planted bug turns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Plant:
    """What a planted bug changes in the harness; defaults are honest."""

    bqm_offset: float = 0.0  # added to the model solvers and the chain see
    energy_shift: float = 0.0  # added to every solver's reported energy
    ising_j_scale: float = 1.0  # on the Ising couplings in the round trip
    decode_cost_shift: float = 0.0  # added to the decoded plan cost
    drop_compiled_term: bool = False  # compiled kernels drop one interaction
    drop_clamp_fold: bool = False  # the array clamp drops one boundary fold
    drop_matrix_diagonal: bool = False  # the compiled QUBO matrix loses one entry
    sql_drift: float = 1.0  # on the extracted SQL graph's join selectivities
    router_scale: float = 1.0  # on the router's runtime predictions
    reconcile: bool = True  # boundary pass after the naive shard merge


class _ScaledCostModel(SolverCostModel):
    """Cost model whose runtime predictions are scaled."""

    def __init__(self, scale: float) -> None:
        self.scale = float(scale)

    def predict_runtime_ms(self, solver, num_variables) -> float:
        return super().predict_runtime_ms(solver, num_variables) * self.scale


# ----------------------------------------------------------------------
# Point checks: (params, seed, plant) -> row
# ----------------------------------------------------------------------
def _case_variables(params: Dict[str, Any]) -> int:
    """QUBO size of a case from its parameters alone (no build)."""
    if "queries" in params:
        return int(params["queries"]) * int(params["ppq"])
    return int(params["relations"]) ** 2


def _case_from_params(params: Dict[str, Any]) -> Case:
    return Case(case_id=params["case_id"], kind=params["kind"], params=dict(params["case"]))


def _oracle_record(params: Dict[str, Any]) -> Dict[str, Any]:
    return compute_oracle(
        _case_from_params(params),
        energy_limit=int(params["energy_limit"]),
        cache=bool(params["oracle_cache"]),
    )


def _planted_bqm(bqm, plant: Plant):
    if not plant.bqm_offset:
        return bqm
    shifted = bqm.copy()
    shifted.offset += plant.bqm_offset
    return shifted


def _checks_row(
    case_id: str, checks: int, violations: Sequence[Violation]
) -> Dict[str, Any]:
    """Row of a point type whose checks are not per solver."""
    return {
        "case_id": case_id,
        "solver": None,
        "checks": checks,
        "violations": [v.to_dict() for v in violations],
    }


def _energy_checks(
    solver_name: str,
    capabilities,
    reported_energy: float,
    sample_energy: Optional[float],
    oracle: Dict[str, Any],
) -> List[Violation]:
    """Reported-energy consistency + oracle energy bounds."""
    violations: List[Violation] = []
    if sample_energy is not None and abs(reported_energy - sample_energy) > _ENERGY_ATOL:
        violations.append(
            Violation(
                invariant="reported-energy-consistency",
                subject=solver_name,
                message=(
                    f"solver reported energy {reported_energy:.9g} but its "
                    f"sample evaluates to {sample_energy:.9g}"
                ),
                details={"reported": reported_energy, "recomputed": sample_energy},
            )
        )
    oracle_energy = oracle.get("energy")
    if oracle_energy is not None:
        energy = sample_energy if sample_energy is not None else reported_energy
        if energy < oracle_energy - _ENERGY_ATOL:
            violations.append(
                Violation(
                    invariant="oracle-energy-lower-bound",
                    subject=solver_name,
                    message=(
                        f"energy {energy:.9g} undercuts the exact ground "
                        f"energy {oracle_energy:.9g} — the encoding the solver "
                        "saw differs from the oracle's"
                    ),
                    details={"energy": energy, "oracle_energy": oracle_energy},
                )
            )
        if "exact" in capabilities and energy > oracle_energy + _ENERGY_ATOL:
            violations.append(
                Violation(
                    invariant="exact-solver-optimality",
                    subject=solver_name,
                    message=(
                        f"exact solver returned energy {energy:.9g} above the "
                        f"ground energy {oracle_energy:.9g}"
                    ),
                    details={"energy": energy, "oracle_energy": oracle_energy},
                )
            )
    return violations


def _cost_checks(
    subject: str, valid: bool, cost: Optional[float], oracle: Dict[str, Any]
) -> List[Violation]:
    """No valid plan may cost less than the domain optimum."""
    oracle_cost = oracle.get("cost")
    if not valid or cost is None or oracle_cost is None:
        return []
    if cost < oracle_cost - _ENERGY_ATOL:
        return [
            Violation(
                invariant="oracle-cost-lower-bound",
                subject=subject,
                message=(
                    f"valid plan costs {cost:.9g}, below the exhaustive "
                    f"optimum {oracle_cost:.9g}"
                ),
                details={"cost": cost, "oracle_cost": oracle_cost},
            )
        ]
    return []


def _plan_row(
    params: Dict[str, Any],
    solver: str,
    oracle: Dict[str, Any],
    violations: List[Dict[str, Any]],
    valid: bool,
    cost: Optional[float],
    **fields: Any,
) -> Dict[str, Any]:
    """Row of a per-solver point type: plan quality vs the oracle."""
    oracle_cost = oracle.get("cost")
    return {
        "case_id": params["case_id"],
        "solver": solver,
        "oracle_energy": oracle.get("energy"),
        "valid": bool(valid),
        "cost": float(cost) if valid else None,
        "oracle_cost": oracle_cost,
        "cost_gap_rel": (
            (float(cost) - oracle_cost) / oracle_cost if valid and oracle_cost else None
        ),
        "violations": violations,
        **fields,
    }


def _solver_check(params: Dict[str, Any], seed: int, plant: Plant) -> Dict[str, Any]:
    """Run one registry solver on one case and compare against oracle."""
    from repro.hybrid.registry import make_solver

    built = build_case(_case_from_params(params))
    oracle = _oracle_record(params)
    bqm = _planted_bqm(built.bqm, plant)
    name = params["solver"]

    solver = make_solver(name)
    result = solver.solve(bqm, seed=seed)
    reported_energy = float(result.energy) + plant.energy_shift
    sample_energy = float(bqm.energy(result.sample)) if result.sample else None

    found = _energy_checks(
        name, solver.capabilities, reported_energy, sample_energy, oracle
    )
    plan, cost, valid = built.adapter.decode(dict(result.sample))
    if valid and not built.adapter.validate(plan):
        found.append(
            Violation(
                invariant="decode-validate-agreement",
                subject=name,
                message="decode reported a valid plan that validate() rejects",
                details={"plan": plan},
            )
        )
    found += _cost_checks(name, valid, cost, oracle)

    oracle_energy = oracle.get("energy")
    return _plan_row(
        params, name, oracle,
        list(oracle.get("violations", ())) + [v.to_dict() for v in found],
        valid, cost,
        num_variables=bqm.num_variables,
        energy=sample_energy if sample_energy is not None else reported_energy,
        energy_gap=(
            None
            if oracle_energy is None or sample_energy is None
            else sample_energy - oracle_energy
        ),
    )


def _chain_check(params: Dict[str, Any], seed: int, plant: Plant) -> Dict[str, Any]:
    """Run the service fallback chain on one case under ample deadline."""
    from repro.qubo.compiled import compile_bqm
    from repro.service.chain import default_policy, run_chain

    built = build_case(_case_from_params(params))
    oracle = _oracle_record(params)
    # every chain stage solves the adapter's cached compiled model
    built.adapter._compiled = compile_bqm(_planted_bqm(built.adapter.bqm(), plant))

    outcome = run_chain(
        built.adapter,
        default_policy(),
        deadline_s=_CHAIN_DEADLINE_S,
        seed=seed,
        mode="first_valid",
    )
    found: List[Violation] = []
    if not outcome.valid:
        found.append(
            Violation(
                invariant="chain-valid-guarantee",
                subject="chain",
                message="the fallback chain returned an invalid plan",
                details={"served_by": outcome.served_by},
            )
        )
    elif not built.adapter.validate(outcome.plan):
        found.append(
            Violation(
                invariant="chain-plan-validity",
                subject="chain",
                message="the chain's plan fails the adapter's validate()",
                details={"served_by": outcome.served_by, "plan": outcome.plan},
            )
        )
    if outcome.energy is not None:
        found += _energy_checks("chain", (), outcome.energy, None, oracle)
    found += _cost_checks("chain", outcome.valid, float(outcome.cost), oracle)
    return _plan_row(
        params, "chain", oracle,
        list(oracle.get("violations", ())) + [v.to_dict() for v in found],
        outcome.valid, outcome.cost,
        num_variables=_case_variables(params["case"]),
        energy=outcome.energy,
        energy_gap=None,
        served_by=outcome.served_by,
    )


def _invariants_check(
    params: Dict[str, Any], seed: int, plant: Plant
) -> Dict[str, Any]:
    """Run the per-case invariant catalog."""
    import networkx as nx
    import numpy as np

    built = build_case(_case_from_params(params))
    bqm = built.bqm
    samples = random_assignments(bqm, 24, seed)
    subject = params["case_id"]

    violations: List[Violation] = []
    violations += check_ising_round_trip(
        bqm, samples, subject=subject, j_scale=plant.ising_j_scale
    )
    violations += check_qubo_round_trip(bqm, samples, subject=subject)
    violations += check_matrix_energy(
        bqm, samples, subject=subject, drop_matrix_diagonal=plant.drop_matrix_diagonal
    )
    violations += check_compiled_energy_consistency(
        bqm, samples, subject=subject, drop_interaction=plant.drop_compiled_term
    )
    violations += check_fix_variable_conservation(
        bqm, samples[:6], subject=subject, seed=seed, drop_clamp_fold=plant.drop_clamp_fold
    )

    rng = np.random.default_rng(seed)
    if params["kind"] == "mqo":
        decode_samples = list(samples)
        # add guaranteed-valid selections: one random plan per query
        from repro.mqo.qubo import variable_name

        for _ in range(8):
            sample = {v: 0 for v in bqm.variables}
            for _, plans in sorted(built.problem.plans_by_query().items()):
                chosen = plans[int(rng.integers(len(plans)))]
                sample[variable_name(chosen.plan_id)] = 1
            decode_samples.append(sample)
        violations += check_mqo_decode_consistency(
            built.problem,
            built.builder,
            bqm,
            decode_samples,
            subject=subject,
            cost_shift=plant.decode_cost_shift,
        )
    else:
        names = list(built.problem.relation_names)
        orders = [tuple(rng.permutation(names)) for _ in range(8)]
        violations += check_join_decode_consistency(
            built.builder, bqm, orders, subject=subject,
            cost_shift=plant.decode_cost_shift,
        )

    # embedding-chain validity of this case's interaction graph on a
    # Chimera target (skip the largest graphs to bound sweep time)
    checks = 6
    if bqm.num_variables <= 16:
        from repro.annealing.chimera import chimera_graph
        from repro.annealing.embedding import find_embedding

        source = bqm.interaction_graph()
        source.remove_edges_from(nx.selfloop_edges(source))
        target = chimera_graph(4)
        embedding = find_embedding(
            source, target, tries=1, improvement_rounds=15, seed=seed,
            stop_at_first=True,
        )
        violations += check_embedding_validity(
            source, target, embedding, subject=subject
        )
        checks += 1

    return _checks_row(params["case_id"], checks, violations)


def _gate_check(params: Dict[str, Any], seed: int, plant: Plant) -> Dict[str, Any]:
    """Transpiled-circuit equivalence on one random circuit."""
    from repro.gate.topologies import line_coupling_map

    qubits = int(params["qubits"])
    circuit = random_circuit(qubits, depth=int(params["depth"]), seed=seed)
    subject = f"random-circuit-{qubits}q-{params['coupling']}"
    coupling = None if params["coupling"] == "full" else line_coupling_map(qubits)
    violations = check_transpile_equivalence(
        circuit, coupling_map=coupling, seed=seed, subject=subject
    )
    return _checks_row(subject, 1, violations)


def _sql_check(params: Dict[str, Any], seed: int, plant: Plant) -> Dict[str, Any]:
    """sql-plan-consistency on one generated TPC-H-style query."""
    import numpy as np

    from repro.sql import generate_query, plan_query

    query_seed = int(params["query_seed"])
    sql = generate_query(
        seed=query_seed,
        min_tables=int(params["min_tables"]),
        max_tables=int(params["max_tables"]),
    )
    plan = plan_query(sql)
    rng = np.random.default_rng(seed)
    names = list(plan.graph.relation_names)
    orders = [tuple(str(n) for n in rng.permutation(names)) for _ in range(8)]
    subject = f"sql-query-{query_seed}"
    violations = check_sql_plan_consistency(
        plan, orders, subject=subject, drift=plant.sql_drift
    )
    return _checks_row(subject, len(orders), violations)


def _routing_check(params: Dict[str, Any], seed: int, plant: Plant) -> Dict[str, Any]:
    """routing-regret + prediction sanity on one case's features."""
    from repro.routing import extract_features

    built = build_case(_case_from_params(params))
    violations = check_routing_feasibility(
        extract_features(built.adapter),
        _ROUTING_DEADLINES,
        subject=params["case_id"],
        model=_ScaledCostModel(plant.router_scale),
    )
    return _checks_row(params["case_id"], len(_ROUTING_DEADLINES), violations)


def _shard_check(params: Dict[str, Any], seed: int, plant: Plant) -> Dict[str, Any]:
    """shard-reconciliation on one case's QUBO."""
    built = build_case(_case_from_params(params))
    violations = check_shard_reconciliation(
        built.bqm, seed=seed, subject=params["case_id"], reconcile=plant.reconcile
    )
    return _checks_row(params["case_id"], 3, violations)


# ----------------------------------------------------------------------
# Point generators: (cases, solvers) -> grid points
# ----------------------------------------------------------------------
def _case_params(case: Case) -> Dict[str, Any]:
    return {"case_id": case.case_id, "kind": case.kind, "case": dict(case.params)}


def _per_case(cases: Sequence[Case], solvers: Sequence[str]) -> List[Dict[str, Any]]:
    return [_case_params(case) for case in cases]


def _solver_points(
    cases: Sequence[Case], solvers: Sequence[str]
) -> List[Dict[str, Any]]:
    """One point per (case, solver) within the solver's sweep cap."""
    from repro.hybrid.registry import make_solver

    limits = {}
    for name in solvers:
        cap = make_solver(name).max_variables
        sweep_cap = _SWEEP_LIMITS.get(name)
        if sweep_cap is not None:
            cap = sweep_cap if cap is None else min(cap, sweep_cap)
        limits[name] = cap
    return [
        {**_case_params(case), "solver": name}
        for case in cases
        for name in solvers
        if limits[name] is None or _case_variables(case.params) <= limits[name]
    ]


def _gate_points(cases: Sequence[Case], solvers: Sequence[str]) -> List[Dict[str, Any]]:
    return [
        {"qubits": qubits, "depth": depth, "coupling": coupling}
        for qubits, depth in ((4, 4), (5, 3))
        for coupling in ("full", "line")
    ]


def _sql_points(cases: Sequence[Case], solvers: Sequence[str]) -> List[Dict[str, Any]]:
    return [
        {"query_seed": query_seed, "min_tables": 3, "max_tables": 6}
        for query_seed in (101, 202, 303)
    ]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PointType:
    """One kind of grid point: how to generate it and how to check it."""

    name: str
    #: ``(cases, solvers) -> [params]`` over the corpus
    points: Callable[[Sequence[Case], Sequence[str]], List[Dict[str, Any]]]
    #: ``(params, seed, plant) -> row``
    check: Callable[[Dict[str, Any], int, Plant], Dict[str, Any]]
    #: rows count per solver in the summaries (else as ``checks``)
    per_solver: bool = False


@dataclass(frozen=True)
class PlantedBug:
    """A known bug the harness plants in itself to prove it is caught."""

    name: str
    #: point types the bug reaches; each must report a violation
    targets: Tuple[str, ...]
    #: the invariant the bug must trip
    invariant: str
    plant: Plant


POINT_TYPES: Dict[str, PointType] = {
    t.name: t
    for t in (
        PointType("solver", _solver_points, _solver_check, per_solver=True),
        PointType("chain", _per_case, _chain_check, per_solver=True),
        PointType("invariants", _per_case, _invariants_check),
        PointType("gate", _gate_points, _gate_check),
        PointType("sql", _sql_points, _sql_check),
        PointType("routing", _per_case, _routing_check),
        PointType("shard", _per_case, _shard_check),
    )
}

PLANTED_BUGS: Dict[str, PlantedBug] = {
    bug.name: bug
    for bug in (
        PlantedBug("offset", ("solver", "chain"), "oracle-energy-lower-bound",
                   Plant(bqm_offset=-1.0)),
        PlantedBug("ising", ("invariants",), "ising-round-trip",
                   Plant(ising_j_scale=1.001)),
        PlantedBug("decode", ("invariants",), "decode-cost-consistency",
                   Plant(decode_cost_shift=1.0)),
        PlantedBug("energy", ("solver",), "reported-energy-consistency",
                   Plant(energy_shift=-0.5)),
        PlantedBug("compiled", ("invariants",), "compiled-energy-consistency",
                   Plant(drop_compiled_term=True)),
        PlantedBug("clamp", ("invariants",), "fix-variable-conservation",
                   Plant(drop_clamp_fold=True)),
        PlantedBug("matrix", ("invariants",), "matrix-energy",
                   Plant(drop_matrix_diagonal=True)),
        PlantedBug("sql", ("sql",), "sql-plan-consistency", Plant(sql_drift=0.99)),
        # a router that believes every stage is ~20x faster than it is
        PlantedBug("router", ("routing",), "routing-regret", Plant(router_scale=0.05)),
        PlantedBug("shard", ("shard",), "shard-reconciliation", Plant(reconcile=False)),
    )
}

#: values of ``inject`` a single sweep accepts
INJECTABLE_BUGS = ("none", *PLANTED_BUGS)


def _verify_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Grid dispatch (module-level: must pickle into pool workers)."""
    inject = params["inject"]
    plant = Plant() if inject == "none" else PLANTED_BUGS[inject].plant
    row = POINT_TYPES[params["type"]].check(params, seed, plant)
    return {"type": params["type"], **row}


def run_verification(
    suite: str = "quick",
    solvers: Optional[Sequence[str]] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    inject: str = "none",
    oracle_cache: bool = True,
    energy_limit: int = DEFAULT_ENERGY_LIMIT,
    types: Optional[Sequence[str]] = None,
) -> VerificationReport:
    """Execute the differential sweep and assemble a report.

    ``types`` selects point types by registry name (default: all of
    :data:`POINT_TYPES`).  Deterministic for a fixed ``(suite,
    solvers, seed, inject, types)`` regardless of ``workers`` — the
    report's ``to_dict()`` form is byte-identical across worker counts.
    """
    if inject not in INJECTABLE_BUGS:
        raise ConfigurationError(
            f"unknown injection {inject!r}; expected one of {', '.join(INJECTABLE_BUGS)}"
        )
    unknown = sorted(set(types or ()) - set(POINT_TYPES))
    if unknown:
        raise ConfigurationError(
            f"unknown point type(s) {', '.join(unknown)}; "
            f"expected some of {', '.join(POINT_TYPES)}"
        )
    selected = [POINT_TYPES[name] for name in (types or POINT_TYPES)]
    registry = sweep_solver_names()
    if solvers is None:
        solvers = registry
    else:
        unknown = sorted(set(solvers) - set(registry))
        if unknown:
            raise ConfigurationError(
                f"unknown solver(s) {', '.join(unknown)}; "
                f"registered: {', '.join(registry)}"
            )
        solvers = list(solvers)

    cases = build_corpus(suite, seed=seed)
    base = {"inject": inject, "oracle_cache": oracle_cache, "energy_limit": energy_limit}
    points = [
        {**base, "type": ptype.name, **params}
        for ptype in selected
        for params in ptype.points(cases, solvers)
    ]
    results = run_grid(
        points,
        _verify_point,
        experiment=_EXPERIMENT,
        seed=seed,
        workers=workers,
        cache=False,  # verification must re-run; only the oracle caches
    )
    rows = [row for result in results for row in result.rows]
    seconds = sum(result.seconds for result in results)
    return summarize(
        suite=suite,
        seed=seed,
        solvers=list(solvers),
        cases=[case.case_id for case in cases],
        rows=rows,
        inject=inject,
        seconds=seconds,
        per_solver_types={t.name for t in POINT_TYPES.values() if t.per_solver},
    )


# ----------------------------------------------------------------------
# --inject all: prove every planted bug is caught
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BugProof:
    """One planted bug's run: violations of its invariant per target."""

    bug: PlantedBug
    hits: Dict[str, int]  # target point type -> violations of bug.invariant

    @property
    def caught(self) -> bool:
        return all(self.hits.values())

    def format_line(self) -> str:
        found = ", ".join(f"{t} ({n})" for t, n in self.hits.items())
        status = "caught " if self.caught else "ESCAPED"
        return f"  {self.bug.name:<9} {status} {self.bug.invariant} on {found}"


def prove_planted_bug(name: str, **sweep: Any) -> BugProof:
    """Plant bug ``name`` on its target point types and count the
    violations of its declared invariant per type.

    ``sweep`` is passed through to :func:`run_verification` (suite,
    solvers, seed, workers, oracle settings).
    """
    bug = PLANTED_BUGS[name]
    report = run_verification(inject=name, types=bug.targets, **sweep)
    hits = {target: 0 for target in bug.targets}
    for row in report.rows:
        hits[row["type"]] += sum(
            1 for v in row["violations"] if v.get("invariant") == bug.invariant
        )
    return BugProof(bug=bug, hits=hits)
