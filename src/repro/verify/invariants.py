"""Reusable invariant checkers for the differential-verification harness.

Every checker is a pure predicate over repository data structures that
returns a list of :class:`Violation` records (empty = invariant holds).
The same checkers back three consumers:

* the differential runner (:mod:`repro.verify.runner`), which sweeps
  them over the seeded instance corpus;
* pytest (``tests/test_verify.py``), which asserts they pass on the
  corpus and that they *fail* when a bug is planted;
* ad-hoc debugging — each checker is importable and self-contained.

Catalog
-------
==============================  ========================================
``ising-round-trip``            ``to_ising`` → ``from_ising`` → binary
                                preserves energies exactly
``qubo-round-trip``             ``to_qubo`` → ``from_qubo`` preserves
                                energies exactly
``fix-variable-conservation``   ``fix_variable`` folds the eliminated
                                variable's contribution into the offset
``matrix-energy``               dense ``x^T Q x + c`` matches
                                :meth:`BinaryQuadraticModel.energy`
``compiled-energy-consistency``  the array-compiled kernels
                                (:func:`repro.qubo.compiled.compile_bqm`)
                                agree with the dict model: vectorized
                                and bit-compatible energies row-by-row,
                                and incremental flip deltas against a
                                full recompute
``decode-cost-consistency``     decoded-plan cost ↔ raw-bitstring BQM
                                energy (MQO Eq. 29; direct join QUBO
                                surrogate objective)
``sql-plan-consistency``        the SQL front door's two cost paths
                                agree: C_out on the extracted query
                                graph equals the cost recomputed from
                                the relational-algebra tree
                                (:func:`repro.sql.cost_from_plan`)
``routing-regret``              the deadline-aware router never leads
                                with a stage whose predicted runtime
                                blows the deadline while a predicted-
                                feasible candidate exists
``shard-reconciliation``        merging independently annealed shards
                                ends with a reconciled assignment: never
                                worse than the naive concatenation, never
                                worse than a reference boundary pass, and
                                with no improving single frontier flip
``transpile-equivalence``       transpiled circuits implement the same
                                statevector (up to global phase and the
                                tracked layout permutation)
``embedding-validity``          chains are non-empty, connected,
                                disjoint, and cover every interaction
==============================  ========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence

import numpy as np

from repro.qubo.bqm import BinaryQuadraticModel, Vartype

__all__ = [
    "Violation",
    "random_assignments",
    "random_circuit",
    "check_ising_round_trip",
    "check_qubo_round_trip",
    "check_fix_variable_conservation",
    "check_matrix_energy",
    "check_compiled_energy_consistency",
    "check_mqo_decode_consistency",
    "check_join_decode_consistency",
    "check_sql_plan_consistency",
    "check_routing_feasibility",
    "check_shard_reconciliation",
    "check_transpile_equivalence",
    "check_embedding_validity",
]

#: absolute tolerance for energy comparisons (models here carry
#: coefficients well below 1e6, so 1e-6 leaves ~9 digits of slack)
ENERGY_ATOL = 1e-6
ENERGY_RTOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant failure, self-describing and JSON-serializable."""

    invariant: str
    subject: str
    message: str
    details: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        """The one-line form used by CLI error output."""
        return f"invariant '{self.invariant}' violated by {self.subject}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "message": self.message,
            "details": dict(self.details),
        }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ENERGY_RTOL, abs_tol=ENERGY_ATOL)


def random_assignments(
    bqm: BinaryQuadraticModel, count: int, seed: int
) -> List[Dict[Hashable, int]]:
    """Deterministic random assignments plus the two constant corners."""
    lo, hi = bqm.vartype.values
    variables = list(bqm.variables)
    rng = np.random.default_rng(seed)
    samples = [dict.fromkeys(variables, lo), dict.fromkeys(variables, hi)]
    for _ in range(max(0, count - 2)):
        values = rng.choice((lo, hi), size=len(variables))
        samples.append({v: int(values[i]) for i, v in enumerate(variables)})
    return samples


# ----------------------------------------------------------------------
# QUBO encoding round-trips
# ----------------------------------------------------------------------
def check_ising_round_trip(
    bqm: BinaryQuadraticModel,
    samples: Sequence[Mapping[Hashable, int]],
    subject: str = "bqm",
    j_scale: float = 1.0,
) -> List[Violation]:
    """``to_ising`` → ``from_ising`` → original vartype preserves energy.

    ``j_scale`` exists for harness self-tests: scaling the couplings in
    transit plants the exact class of bug this invariant exists to
    catch (a dropped factor in the QUBO↔Ising substitution).
    """
    violations: List[Violation] = []
    h, j, offset = bqm.to_ising()
    if j_scale != 1.0:
        j = {pair: bias * j_scale for pair, bias in j.items()}
    spin = BinaryQuadraticModel.from_ising(h, j, offset)
    back = spin.change_vartype(bqm.vartype)
    for index, sample in enumerate(samples):
        direct = bqm.energy(sample)
        if bqm.vartype is Vartype.BINARY:
            spin_sample = {v: 2 * int(x) - 1 for v, x in sample.items()}
        else:
            spin_sample = dict(sample)
        via_spin = spin.energy(spin_sample)
        via_back = back.energy(sample)
        if not _close(direct, via_spin) or not _close(direct, via_back):
            violations.append(
                Violation(
                    invariant="ising-round-trip",
                    subject=subject,
                    message=(
                        f"energy {direct:.9g} became {via_spin:.9g} (spin) / "
                        f"{via_back:.9g} (round-trip) on sample {index}"
                    ),
                    details={
                        "sample_index": index,
                        "direct": direct,
                        "via_spin": via_spin,
                        "via_round_trip": via_back,
                    },
                )
            )
    return violations


def check_qubo_round_trip(
    bqm: BinaryQuadraticModel,
    samples: Sequence[Mapping[Hashable, int]],
    subject: str = "bqm",
) -> List[Violation]:
    """``to_qubo`` → ``from_qubo`` preserves binary energies exactly."""
    violations: List[Violation] = []
    q, offset = bqm.to_qubo()
    rebuilt = BinaryQuadraticModel.from_qubo(q, offset)
    binary = bqm.change_vartype(Vartype.BINARY)
    for index, sample in enumerate(samples):
        if bqm.vartype is Vartype.SPIN:
            sample = {v: (int(s) + 1) // 2 for v, s in sample.items()}
        direct = binary.energy(sample)
        # variables with all-zero biases may be dropped by to_qubo();
        # they contribute nothing, so restrict to rebuilt's variables
        reduced = {v: sample[v] for v in rebuilt.variables}
        via = rebuilt.energy(reduced)
        if not _close(direct, via):
            violations.append(
                Violation(
                    invariant="qubo-round-trip",
                    subject=subject,
                    message=(
                        f"energy {direct:.9g} became {via:.9g} after "
                        f"to_qubo/from_qubo on sample {index}"
                    ),
                    details={"sample_index": index, "direct": direct, "via": via},
                )
            )
    return violations


def check_fix_variable_conservation(
    bqm: BinaryQuadraticModel,
    samples: Sequence[Mapping[Hashable, int]],
    subject: str = "bqm",
) -> List[Violation]:
    """``fix_variable`` conserves ``energy(s) == energy(s | fixed)``.

    The eliminated variable's linear and incident quadratic
    contributions must be folded into the reduced model's offset and
    linear terms, so for every assignment agreeing with the fixed
    value the full and reduced energies coincide.
    """
    violations: List[Violation] = []
    for v in bqm.variables:
        for value in bqm.vartype.values:
            reduced = bqm.copy()
            reduced.fix_variable(v, value)
            for index, sample in enumerate(samples):
                full = bqm.energy({**sample, v: value})
                rest = {u: x for u, x in sample.items() if u != v}
                partial = reduced.energy(rest)
                if not _close(full, partial):
                    violations.append(
                        Violation(
                            invariant="fix-variable-conservation",
                            subject=subject,
                            message=(
                                f"fixing {v!r}={value} changed energy "
                                f"{full:.9g} -> {partial:.9g} on sample {index}"
                            ),
                            details={
                                "variable": str(v),
                                "value": value,
                                "sample_index": index,
                                "full": full,
                                "reduced": partial,
                            },
                        )
                    )
                    break  # one witness per (variable, value) is enough
    return violations


def check_matrix_energy(
    bqm: BinaryQuadraticModel,
    samples: Sequence[Mapping[Hashable, int]],
    subject: str = "bqm",
) -> List[Violation]:
    """Dense ``x^T Q x + offset`` agrees with :meth:`energy`."""
    violations: List[Violation] = []
    q, offset, order = bqm.to_numpy_matrix()
    binary = bqm.change_vartype(Vartype.BINARY)
    for index, sample in enumerate(samples):
        if bqm.vartype is Vartype.SPIN:
            sample = {v: (int(s) + 1) // 2 for v, s in sample.items()}
        x = np.array([sample[v] for v in order], dtype=float)
        dense = float(x @ q @ x) + offset
        direct = binary.energy(sample)
        if not _close(dense, direct):
            violations.append(
                Violation(
                    invariant="matrix-energy",
                    subject=subject,
                    message=(
                        f"dense matrix energy {dense:.9g} != {direct:.9g} "
                        f"on sample {index}"
                    ),
                    details={"sample_index": index, "dense": dense, "direct": direct},
                )
            )
    return violations


def check_compiled_energy_consistency(
    bqm: BinaryQuadraticModel,
    samples: Sequence[Mapping[Hashable, int]],
    subject: str = "bqm",
    drop_interaction: bool = False,
    num_flips: int = 32,
    seed: int = 0,
) -> List[Violation]:
    """The compiled kernels agree with the dict model they were built from.

    Three sub-checks over :func:`repro.qubo.compiled.compile_bqm`:

    1. vectorized ``energies(S)`` matches :meth:`BinaryQuadraticModel.energy`
       row-by-row within tolerance;
    2. ``energies_compat(S)`` matches it **bit-exactly** (that is the
       contract the seed-compatibility fixtures rely on);
    3. incremental flip deltas (``local_fields`` + ``apply_flip``) track
       a full recompute through a random flip sequence.

    ``drop_interaction`` plants the classic miscompilation bug for
    harness self-tests — the last quadratic term (or, for purely linear
    models, part of the first linear bias) is silently dropped from the
    compiled form while the dict model keeps it.
    """
    from repro.qubo.compiled import compile_bqm

    violations: List[Violation] = []
    source = bqm
    if drop_interaction:
        edges = list(bqm.interactions())
        if edges:
            quadratic = {(u, v): bias for u, v, bias in edges[:-1]}
        else:
            quadratic = {}
        linear = bqm.linear
        if not edges and linear:
            first = next(iter(linear))
            linear[first] = linear[first] + 1.0
        source = BinaryQuadraticModel(
            linear, quadratic, offset=bqm.offset, vartype=bqm.vartype
        )
    compiled = compile_bqm(source)

    states = compiled.states_matrix(samples)
    fast = compiled.energies(states)
    compat = compiled.energies_compat(states)
    for index, sample in enumerate(samples):
        direct = bqm.energy(sample)
        if not _close(float(fast[index]), direct):
            violations.append(
                Violation(
                    invariant="compiled-energy-consistency",
                    subject=subject,
                    message=(
                        f"vectorized energy {float(fast[index]):.9g} != "
                        f"dict energy {direct:.9g} on sample {index}"
                    ),
                    details={
                        "sample_index": index,
                        "compiled": float(fast[index]),
                        "direct": direct,
                        "evaluator": "energies",
                    },
                )
            )
        if float(compat[index]) != direct:
            violations.append(
                Violation(
                    invariant="compiled-energy-consistency",
                    subject=subject,
                    message=(
                        f"compat energy {float(compat[index]):.17g} is not "
                        f"bit-identical to dict energy {direct:.17g} on "
                        f"sample {index}"
                    ),
                    details={
                        "sample_index": index,
                        "compiled": float(compat[index]),
                        "direct": direct,
                        "evaluator": "energies_compat",
                    },
                )
            )

    # incremental deltas vs full recompute over a random flip walk
    if states.shape[0] and compiled.num_variables:
        rng = np.random.default_rng(seed)
        fields = compiled.local_fields(states)
        running = compiled.energies(states).copy()
        n = compiled.num_variables
        for step in range(num_flips):
            row = int(rng.integers(states.shape[0]))
            i = int(rng.integers(n))
            value = states[row, i]
            if compiled.vartype is Vartype.SPIN:
                delta = -2.0 * value * fields[row, i]
            else:
                delta = (1.0 - 2.0 * value) * fields[row, i]
            compiled.apply_flip(states, fields, row, i)
            running[row] += delta
            full = float(compiled.energies(states[row])[0])
            if not _close(float(running[row]), full):
                violations.append(
                    Violation(
                        invariant="compiled-energy-consistency",
                        subject=subject,
                        message=(
                            f"delta-energy drift after flip {step}: running "
                            f"{float(running[row]):.9g} != recomputed {full:.9g}"
                        ),
                        details={
                            "flip_index": step,
                            "row": row,
                            "variable_index": i,
                            "running": float(running[row]),
                            "recomputed": full,
                        },
                    )
                )
                break
    return violations


# ----------------------------------------------------------------------
# Decoded plan ↔ raw bitstring consistency
# ----------------------------------------------------------------------
def check_mqo_decode_consistency(
    problem,
    builder,
    bqm: BinaryQuadraticModel,
    samples: Sequence[Mapping[str, int]],
    subject: str = "mqo",
    cost_shift: float = 0.0,
) -> List[Violation]:
    """MQO: valid decodes satisfy ``E == cost − ω_L · |Q|`` (Eq. 29).

    For a one-plan-per-query selection the penalty terms vanish
    (``E_M = 0``) and the reward term is the constant ``−ω_L · |Q|``,
    so the QUBO energy of the raw bitstring and the decoded plan's
    execution cost must differ by exactly that constant.  ``cost_shift``
    plants a bug for harness self-tests.
    """
    violations: List[Violation] = []
    offset = builder.weight_l() * problem.num_queries
    for index, sample in enumerate(samples):
        solution = builder.decode(sample)
        if not solution.valid:
            continue
        energy = bqm.energy(sample)
        cost = solution.cost + cost_shift
        if not _close(energy, cost - offset):
            violations.append(
                Violation(
                    invariant="decode-cost-consistency",
                    subject=subject,
                    message=(
                        f"QUBO energy {energy:.9g} != decoded cost "
                        f"{cost:.9g} - w_L*|Q| ({offset:.9g}) on sample {index}"
                    ),
                    details={
                        "sample_index": index,
                        "energy": energy,
                        "cost": cost,
                        "reward_offset": offset,
                    },
                )
            )
    return violations


def check_join_decode_consistency(
    builder,
    bqm: BinaryQuadraticModel,
    orders: Sequence[Sequence[str]],
    subject: str = "join_order",
    cost_shift: float = 0.0,
) -> List[Violation]:
    """Direct join QUBO: a valid permutation's energy equals the
    log-domain surrogate objective the encoding minimises.

    At a valid permutation every one-hot penalty is zero, so the raw
    bitstring's energy must equal
    :meth:`DirectJoinOrderQubo.surrogate_objective` of the decoded
    order exactly.
    """
    from repro.joinorder.direct_qubo import variable_name

    violations: List[Violation] = []
    names = builder.graph.relation_names
    for index, order in enumerate(orders):
        sample = {
            variable_name(r, pos): 0
            for r in names
            for pos in range(len(names))
        }
        for pos, r in enumerate(order):
            sample[variable_name(r, pos)] = 1
        energy = bqm.energy(sample)
        surrogate = builder.surrogate_objective(list(order)) + cost_shift
        if not _close(energy, surrogate):
            violations.append(
                Violation(
                    invariant="decode-cost-consistency",
                    subject=subject,
                    message=(
                        f"QUBO energy {energy:.9g} != surrogate objective "
                        f"{surrogate:.9g} for order {' >> '.join(order)}"
                    ),
                    details={
                        "order": list(order),
                        "energy": energy,
                        "surrogate": surrogate,
                    },
                )
            )
    return violations


# ----------------------------------------------------------------------
# SQL front door: two independent cost paths must agree
# ----------------------------------------------------------------------
def check_sql_plan_consistency(
    sql_plan,
    orders: Sequence[Sequence[str]],
    subject: str = "sql",
    drift: float = 1.0,
) -> List[Violation]:
    """SQL pipeline: graph-path and algebra-path costs coincide.

    For a derived :class:`~repro.sql.SqlPlan` and any join order, the
    C_out cost computed on the *extracted query graph*
    (:func:`repro.joinorder.cost.cout_cost`) must equal the cost
    recomputed *directly from the relational-algebra tree*
    (:func:`repro.sql.cost_from_plan`) — the two paths share only the
    bound query, so any selectivity/cardinality estimator divergence
    between extraction and algebra shows up here.

    ``drift`` scales the extracted graph's join selectivities and exists
    for harness self-tests: ``drift != 1.0`` simulates exactly the
    estimator-drift bug class this invariant catches.
    """
    from dataclasses import replace

    from repro.joinorder.cost import cout_cost
    from repro.sql import cost_from_plan

    graph = sql_plan.graph
    if drift != 1.0:
        drifted = [replace(p, selectivity=p.selectivity * drift) for p in graph.predicates]
        graph = replace(graph, predicates=tuple(drifted))
    violations: List[Violation] = []
    for index, order in enumerate(orders):
        via_graph = cout_cost(graph, list(order))
        via_algebra = cost_from_plan(sql_plan.bound, sql_plan.optimized, list(order))
        if not math.isclose(via_graph, via_algebra, rel_tol=1e-9, abs_tol=1e-9):
            violations.append(
                Violation(
                    invariant="sql-plan-consistency",
                    subject=subject,
                    message=(
                        f"graph-path cost {via_graph:.9g} != algebra-path "
                        f"cost {via_algebra:.9g} for order "
                        f"{' >> '.join(order)}"
                    ),
                    details={
                        "order": list(order),
                        "order_index": index,
                        "via_graph": via_graph,
                        "via_algebra": via_algebra,
                        "sql": sql_plan.query.sql,
                    },
                )
            )
    return violations


# ----------------------------------------------------------------------
# Deadline-aware routing
# ----------------------------------------------------------------------
def check_routing_feasibility(
    features,
    deadlines_ms: Sequence[float],
    subject: str = "routing",
    model=None,
) -> List[Violation]:
    """``routing-regret``: the router must lead with a feasible stage.

    For every deadline, a :class:`repro.routing.RoutingPolicy` over
    ``model`` (default: the prior cost model) decides a chain for
    ``features``; the prior cost model then judges the decision.
    Whenever at least one candidate's true predicted
    runtime fits the deadline, the chain's first stage must be one of
    them — leading with a predicted-infeasible stage is regret the
    router could have avoided.  Predictions must also be finite and
    non-negative and every stage weight positive.

    A ``model`` whose predictions are too optimistic plants exactly the
    over-eager-router bug class this invariant catches
    (``--inject router``).
    """
    from repro.routing import RoutingPolicy, SolverCostModel

    reference = SolverCostModel()
    router = RoutingPolicy(model=model)
    violations: List[Violation] = []
    for deadline_ms in deadlines_ms:
        decision = router.decide(features, deadline_ms)
        for solver, predicted in decision.predicted_ms:
            if not math.isfinite(predicted) or predicted < 0.0:
                violations.append(
                    Violation(
                        invariant="routing-prediction-sanity",
                        subject=subject,
                        message=(
                            f"predicted runtime for {solver} is {predicted!r}, "
                            "expected finite and non-negative"
                        ),
                        details={"solver": solver, "deadline_ms": deadline_ms},
                    )
                )
        if any(spec.weight <= 0 for spec in decision.policy):
            violations.append(
                Violation(
                    invariant="routing-prediction-sanity",
                    subject=subject,
                    message="routed chain contains a non-positive stage weight",
                    details={"deadline_ms": deadline_ms},
                )
            )
        true_ms = {
            spec.solver: reference.predict_runtime_ms(
                spec.solver, features.num_variables
            )
            for spec in router.candidates
        }
        feasible = sorted(
            solver
            for solver, predicted in true_ms.items()
            if predicted <= deadline_ms + ENERGY_ATOL
        )
        first = decision.policy[0].solver
        if feasible and true_ms[first] > deadline_ms + ENERGY_ATOL:
            violations.append(
                Violation(
                    invariant="routing-regret",
                    subject=subject,
                    message=(
                        f"router leads with {first} (predicted "
                        f"{true_ms[first]:.3g} ms) for a {deadline_ms:g} ms "
                        f"deadline although {', '.join(feasible)} fit(s)"
                    ),
                    details={
                        "deadline_ms": deadline_ms,
                        "first_stage": first,
                        "predicted_ms": true_ms,
                        "feasible": feasible,
                    },
                )
            )
    return violations


# ----------------------------------------------------------------------
# Fleet sharding: merged shards must be boundary-reconciled
# ----------------------------------------------------------------------
def check_shard_reconciliation(
    bqm: BinaryQuadraticModel,
    seed: int = 0,
    subject: str = "shard",
    block_size: int = 8,
    incumbents: int = 3,
    fleet_size: int = 2,
    reconcile: bool = True,
) -> List[Violation]:
    """``shard-reconciliation``: merged fleet shards end reconciled.

    Models the fleet solver's merge step end to end: partition the
    variables into blocks, clamp each block's subproblem against a
    random incumbent, anneal the shards on an
    :class:`repro.annealers.AnnealerFleet`, patch every shard into the
    incumbent (the naive concatenation), then run the production
    boundary pass.  The accepted assignment must

    1. never be worse than the naive concatenation it started from,
    2. never be worse than a reference :func:`reconcile_boundary` run
       on the same merge, and
    3. admit no improving single flip on any *frontier* variable
       (one coupled across shards) — the post-condition of the pass's
       final clamped descent.

    ``reconcile=False`` exists for harness self-tests: skipping the
    boundary pass is exactly the planted bug behind
    ``--inject shard``.
    """
    from repro.annealers import AnnealerFleet
    from repro.hybrid import frontier_variables, reconcile_boundary
    from repro.hybrid.decomposer import clamp_subproblem

    violations: List[Violation] = []
    variables = sorted(bqm.variables, key=str)
    if len(variables) < 4:
        return violations
    size = max(2, min(int(block_size), (len(variables) + 1) // 2))
    blocks = [variables[i : i + size] for i in range(0, len(variables), size)]
    frontier = frontier_variables(bqm, blocks)
    fleet = AnnealerFleet.homogeneous(fleet_size)
    lo, hi = bqm.vartype.values
    rng = np.random.default_rng(seed)

    for index in range(int(incumbents)):
        values = rng.choice((lo, hi), size=len(variables))
        incumbent = {v: int(values[i]) for i, v in enumerate(variables)}
        shards = [clamp_subproblem(bqm, block, incumbent) for block in blocks]
        naive: Dict[Hashable, int] = dict(incumbent)
        for shard_sample, _ in fleet.dispatch(shards, seed):
            naive.update(shard_sample)
        naive_energy = bqm.energy(naive)
        reference, reference_energy = reconcile_boundary(
            bqm, naive, frontier, seed=seed
        )
        if reconcile:
            final, final_energy = reference, reference_energy
        else:
            final, final_energy = naive, naive_energy

        if final_energy > naive_energy + ENERGY_ATOL:
            violations.append(
                Violation(
                    invariant="shard-reconciliation",
                    subject=subject,
                    message=(
                        f"merged assignment at {final_energy:.9g} is worse "
                        f"than the naive shard concatenation "
                        f"{naive_energy:.9g} on incumbent {index}"
                    ),
                    details={
                        "incumbent_index": index,
                        "final": final_energy,
                        "naive": naive_energy,
                    },
                )
            )
        if final_energy > reference_energy + ENERGY_ATOL:
            violations.append(
                Violation(
                    invariant="shard-reconciliation",
                    subject=subject,
                    message=(
                        f"accepted merge at {final_energy:.9g} misses the "
                        f"boundary pass's {reference_energy:.9g} on "
                        f"incumbent {index} — frontier was not reconciled"
                    ),
                    details={
                        "incumbent_index": index,
                        "final": final_energy,
                        "reconciled": reference_energy,
                        "frontier_size": len(frontier),
                    },
                )
            )
        for v in frontier:
            flipped = dict(final)
            flipped[v] = lo + hi - int(flipped[v])
            flipped_energy = bqm.energy(flipped)
            if flipped_energy < final_energy - ENERGY_ATOL:
                violations.append(
                    Violation(
                        invariant="shard-reconciliation",
                        subject=subject,
                        message=(
                            f"flipping frontier variable {v!r} improves the "
                            f"accepted merge {final_energy:.9g} -> "
                            f"{flipped_energy:.9g} on incumbent {index}"
                        ),
                        details={
                            "incumbent_index": index,
                            "variable": str(v),
                            "final": final_energy,
                            "flipped": flipped_energy,
                        },
                    )
                )
                break  # one witness flip per incumbent is enough
    return violations


# ----------------------------------------------------------------------
# Transpiled-circuit equivalence
# ----------------------------------------------------------------------
def random_circuit(num_qubits: int, depth: int, seed: int):
    """A deterministic random circuit over the full gate vocabulary.

    Mixes the gates the QAOA/VQE ansaetze actually emit (h, rx, ry,
    rz, rzz, cx) with the rest of the standard set so the basis
    translator and peephole optimizer are both exercised.
    """
    from repro.gate.circuit import QuantumCircuit

    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, name=f"random-{num_qubits}x{depth}")
    one_q = ("h", "x", "s", "t", "sx", "rx", "ry", "rz")
    two_q = ("cx", "cz", "swap", "rzz")
    for _ in range(depth):
        for q in range(num_qubits):
            name = one_q[int(rng.integers(len(one_q)))]
            if name in ("rx", "ry", "rz"):
                getattr(qc, name)(float(rng.uniform(-math.pi, math.pi)), q)
            else:
                getattr(qc, name)(q)
        if num_qubits >= 2:
            pairs = rng.permutation(num_qubits)
            for i in range(0, num_qubits - 1, 2):
                a, b = int(pairs[i]), int(pairs[i + 1])
                name = two_q[int(rng.integers(len(two_q)))]
                if name == "rzz":
                    qc.rzz(float(rng.uniform(-math.pi, math.pi)), a, b)
                else:
                    getattr(qc, name)(a, b)
    return qc


def _statevector_matches(
    actual: np.ndarray, expected: np.ndarray, atol: float = 1e-7
) -> bool:
    """Equality up to global phase via the phase of the largest amplitude."""
    pivot = int(np.argmax(np.abs(expected)))
    if abs(expected[pivot]) < 1e-12:
        return bool(np.allclose(actual, expected, atol=atol))
    phase = actual[pivot] / expected[pivot]
    if not math.isclose(abs(phase), 1.0, abs_tol=1e-6):
        return False
    return bool(np.allclose(actual, phase * expected, atol=atol))


def check_transpile_equivalence(
    circuit,
    coupling_map=None,
    seed: int = 0,
    optimization_level: int = 1,
    subject: str = "circuit",
) -> List[Violation]:
    """A transpiled circuit implements the original statevector.

    On an all-to-all target this exercises basis translation and the
    peephole optimizer directly.  On a constrained topology the
    layout/routing stages are replayed with explicit layout tracking:
    logical qubit ``q`` starts at ``initial_layout(q)`` and, after the
    inserted swaps, ends at ``final_layout(q)``; the transpiled state
    must equal the original state transported along that permutation
    with every ancilla qubit left in ``|0>`` — all up to global phase.
    """
    from repro.gate.statevector import Statevector
    from repro.gate.topologies import full_coupling_map
    from repro.gate.transpiler.basis import decompose_to_basis
    from repro.gate.transpiler.layout import dense_layout
    from repro.gate.transpiler.optimize import optimize_circuit
    from repro.gate.transpiler.routing import sabre_route

    violations: List[Violation] = []
    reference = Statevector.from_circuit(circuit).data

    if coupling_map is None or coupling_map.is_fully_connected():
        coupling_map = full_coupling_map(circuit.num_qubits)
        transpiled = optimize_circuit(
            decompose_to_basis(circuit), level=optimization_level
        )
        actual = Statevector.from_circuit(transpiled).data
        expected = reference
        mapping = {q: q for q in range(circuit.num_qubits)}
    else:
        rng = np.random.default_rng(seed)
        layout = dense_layout(circuit, coupling_map, rng)
        routed, final_layout = sabre_route(circuit, coupling_map, layout, rng)
        transpiled = optimize_circuit(
            decompose_to_basis(routed), level=optimization_level
        )
        actual = Statevector.from_circuit(transpiled).data
        mapping = {q: final_layout.physical(q) for q in range(circuit.num_qubits)}
        expected = np.zeros(1 << coupling_map.num_qubits, dtype=complex)
        for index in range(reference.size):
            physical = 0
            for q in range(circuit.num_qubits):
                if (index >> q) & 1:
                    physical |= 1 << mapping[q]
            expected[physical] = reference[index]

    if not _statevector_matches(actual, expected):
        overlap = float(abs(np.vdot(expected, actual)))
        violations.append(
            Violation(
                invariant="transpile-equivalence",
                subject=subject,
                message=(
                    f"transpiled statevector deviates from the original "
                    f"(|<expected|actual>| = {overlap:.6f})"
                ),
                details={
                    "overlap": overlap,
                    "num_qubits": circuit.num_qubits,
                    "target_qubits": coupling_map.num_qubits,
                    "final_layout": {str(k): v for k, v in mapping.items()},
                },
            )
        )
    return violations


# ----------------------------------------------------------------------
# Embedding-chain validity
# ----------------------------------------------------------------------
def check_embedding_validity(
    source, target, embedding, subject: str = "embedding"
) -> List[Violation]:
    """Chains are non-empty, connected, disjoint and cover every edge.

    A finer-grained version of :meth:`EmbeddingResult.is_valid` that
    names the broken chain or uncovered interaction instead of
    returning a bare boolean.
    """
    import networkx as nx

    violations: List[Violation] = []
    if embedding is None:
        return [
            Violation(
                invariant="embedding-validity",
                subject=subject,
                message="no embedding was found for a feasible source/target pair",
                details={
                    "source_nodes": source.number_of_nodes(),
                    "target_nodes": target.number_of_nodes(),
                },
            )
        ]
    chains = embedding.chains
    used: Dict[int, Hashable] = {}
    for node, chain in chains.items():
        if not chain:
            violations.append(
                Violation(
                    invariant="embedding-validity",
                    subject=subject,
                    message=f"logical node {node!r} has an empty chain",
                    details={"node": str(node)},
                )
            )
            continue
        missing = [q for q in chain if q not in target]
        if missing:
            violations.append(
                Violation(
                    invariant="embedding-validity",
                    subject=subject,
                    message=f"chain of {node!r} uses non-target qubits {missing}",
                    details={"node": str(node), "missing": list(missing)},
                )
            )
            continue
        for q in chain:
            if q in used:
                violations.append(
                    Violation(
                        invariant="embedding-validity",
                        subject=subject,
                        message=(
                            f"physical qubit {q} reused across chains "
                            f"{used[q]!r} and {node!r}"
                        ),
                        details={"qubit": q, "first": str(used[q]), "second": str(node)},
                    )
                )
            used.setdefault(q, node)
        if not nx.is_connected(target.subgraph(chain)):
            violations.append(
                Violation(
                    invariant="embedding-validity",
                    subject=subject,
                    message=f"chain of {node!r} is not connected in the target",
                    details={"node": str(node), "chain": list(chain)},
                )
            )
    for a, b in source.edges:
        if a == b or a not in chains or b not in chains:
            continue
        chain_a, chain_b = set(chains[a]), set(chains[b])
        if not any(target.has_edge(p, q) for p in chain_a for q in chain_b):
            violations.append(
                Violation(
                    invariant="embedding-validity",
                    subject=subject,
                    message=(
                        f"interaction ({a!r}, {b!r}) has no physical coupler "
                        "between its chains"
                    ),
                    details={"edge": [str(a), str(b)]},
                )
            )
    return violations
