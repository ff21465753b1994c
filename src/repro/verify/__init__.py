"""Cross-solver differential verification (``python -m repro verify``).

Three layers:

* :mod:`repro.verify.oracle` — exact ground truth (brute-force QUBO
  minima, exhaustive domain optima) with content-addressed caching;
* :mod:`repro.verify.invariants` — reusable invariant predicates
  (encoding round-trips, decode consistency, transpile equivalence,
  embedding validity) shared between the sweep and the pytest suite;
* :mod:`repro.verify.runner` — the differential sweep, driven by one
  registry of point types (``POINT_TYPES``) and planted bugs
  (``PLANTED_BUGS``), fanned out through :func:`repro.harness.run_grid`.

See ``docs/testing.md`` for the invariant catalog and how to get a
new solver into the sweep.
"""

from repro.verify.corpus import SUITES, BuiltCase, Case, build_case, build_corpus
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
    check_transpile_equivalence,
    random_assignments,
    random_circuit,
)
from repro.verify.oracle import DEFAULT_ENERGY_LIMIT, bqm_fingerprint, compute_oracle
from repro.verify.report import SolverSummary, VerificationReport, summarize
from repro.verify.runner import INJECTABLE_BUGS, run_verification, sweep_solver_names

__all__ = [
    "BuiltCase",
    "Case",
    "DEFAULT_ENERGY_LIMIT",
    "INJECTABLE_BUGS",
    "SUITES",
    "SolverSummary",
    "VerificationReport",
    "Violation",
    "bqm_fingerprint",
    "build_case",
    "build_corpus",
    "check_compiled_energy_consistency",
    "check_embedding_validity",
    "check_fix_variable_conservation",
    "check_ising_round_trip",
    "check_join_decode_consistency",
    "check_matrix_energy",
    "check_mqo_decode_consistency",
    "check_qubo_round_trip",
    "check_routing_feasibility",
    "check_shard_reconciliation",
    "check_transpile_equivalence",
    "compute_oracle",
    "random_assignments",
    "random_circuit",
    "run_verification",
    "summarize",
    "sweep_solver_names",
]
