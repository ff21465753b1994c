"""Decomposition-based hybrid solving and the unified solver registry.

Near-term quantum hardware holds only toy MQO/join-ordering instances
(the paper's core conclusion); the hybrid literature it spawned
([Trummer & Koch 2016] on D-Wave MQO, Fankhauser et al. 2021's hybrid
quantum-classical MQO, qbsolv) decomposes large QUBOs into
hardware-sized subproblems and iterates.  This package provides that
layer for the reproduction:

* :class:`~repro.hybrid.solver.DecomposingSolver` — qbsolv-style
  decomposition loop (energy-impact block selection with a
  graph-partition fallback, boundary clamping, exact or local-search
  sub-solves, round-robin until converged);
* :mod:`~repro.hybrid.decomposer` — its primitives, on
  :class:`~repro.qubo.compiled.CompiledBQM` arrays, state vectors and
  variable indices, plus :func:`clamp_subproblem`, the dict-model clamp
  the array clamp is checked against;
* :class:`~repro.hybrid.tabu.TabuSampler` — Ocean-compatible tabu
  search, the default classical sub-solver;
* :mod:`~repro.hybrid.reconcile` — boundary reconciliation for
  fleet-mode sharding (frontier re-optimization after a concurrent
  multi-annealer merge; see :mod:`repro.annealers`);
* :mod:`~repro.hybrid.registry` — every end-to-end solver path
  (classical baselines, exact enumeration, annealing, gate-model
  eigensolvers, hybrid, multi-annealer fleet) behind one ``Solver``
  protocol keyed by name.
"""

from repro.hybrid.decomposer import (
    clamp_subproblem,
    component_weight_indices,
    descend,
    energy_impact_indices,
    flip_gains,
    pack_components,
    strong_component_indices,
)
from repro.hybrid.registry import (
    Solver,
    make_solver,
    register_solver,
    solver_catalog,
    solver_names,
    supports_time_budget,
    valid_options,
)
from repro.hybrid.reconcile import frontier_indices, reconcile_states
from repro.hybrid.solver import DecomposingSolver, SolveResult
from repro.hybrid.tabu import TabuSampler

__all__ = [
    "DecomposingSolver",
    "SolveResult",
    "Solver",
    "TabuSampler",
    "clamp_subproblem",
    "component_weight_indices",
    "descend",
    "energy_impact_indices",
    "flip_gains",
    "frontier_indices",
    "make_solver",
    "pack_components",
    "reconcile_states",
    "register_solver",
    "solver_catalog",
    "solver_names",
    "strong_component_indices",
    "supports_time_budget",
    "valid_options",
]
