"""Boundary reconciliation for sharded (fleet-mode) decomposition.

When independent shards are solved concurrently against the *same*
incumbent, each shard's answer is optimal only under the assumption
that every other shard kept its old values.  Patching all shards into
the incumbent at once (the naive merge) breaks that assumption exactly
on the *frontier* — variables with a quadratic coupling into another
shard — and the merged assignment can even be worse than the best
single shard.  Trummer & Koch's multi-annealer MQO pipeline
(arXiv 1510.06437) re-optimizes these border variables classically
after the merge; :func:`reconcile_states` is that pass.

Guarantees (both by construction, and both checked by the
``shard-reconciliation`` verify invariant):

* the reconciled assignment's energy is **never above** the naive
  merge's — chunk re-solves are accepted only when they improve, and
  the final greedy descent only descends;
* no single frontier flip improves the reconciled assignment — the
  pass ends with an exact single-flip descent over the frontier
  variables (clamping the interior), and a frontier flip's full-model
  energy delta equals its delta in that clamped subproblem.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.harness import derive_seed
from repro.qubo.compiled import CompiledBQM
from repro.qubo.exact import brute_force_minimum

from .decomposer import descend

#: ``(clamped_sub, seed) -> (sub_state, energy)``
BlockSolver = Callable[[CompiledBQM, int], Tuple[np.ndarray, float]]

__all__ = ["frontier_indices", "reconcile_states"]

_EXACT_CHUNK_LIMIT = 20
#: frontier variables re-solved together per chunk
_CHUNK_SIZE = 16
_SEED_SCOPE = "repro.hybrid.reconcile"


def frontier_indices(model: CompiledBQM, blocks: Sequence[Sequence[int]]) -> List[int]:
    """Indices of the variables coupled (quadratically) across block
    boundaries, sorted by ``str(var)`` for determinism.

    These are the only variables whose shard-local optimality can be
    invalidated by other shards moving; everything else sees an
    unchanged neighbourhood.  Variables in no block count as one more
    block.
    """
    where = np.full(model.num_variables, -1, dtype=np.intp)
    for index, block in enumerate(blocks):
        where[list(block)] = index
    cut = where[model.edge_u] != where[model.edge_v]
    on = np.zeros(model.num_variables, dtype=bool)
    on[model.edge_u[cut]] = True
    on[model.edge_v[cut]] = True
    return [i for i in model.str_order if on[i]]


def _default_block_solver(sub: CompiledBQM, seed: int) -> Tuple[np.ndarray, float]:
    """Exact for small chunks; single-flip descent otherwise."""
    if sub.num_variables <= _EXACT_CHUNK_LIMIT:
        result = brute_force_minimum(sub)
        return sub.state_vector(result.sample), float(result.energy)
    start = np.full(sub.num_variables, float(min(sub.vartype.values)))
    descended = descend(sub, start)
    return descended, float(sub.energies_compat(descended)[0])


def reconcile_states(
    model: CompiledBQM,
    state: np.ndarray,
    frontier: Sequence[int],
    solve_block: Optional[BlockSolver] = None,
    seed: int = 0,
) -> Tuple[np.ndarray, float]:
    """Re-optimize the ``frontier`` variable indices of a merged state.

    Chunks the frontier (in the given order, 16 at a time),
    clamps everything else to the merged state, re-solves each chunk
    with ``solve_block`` and accepts only improvements, then finishes
    with an exact greedy descent over the whole frontier.  Returns
    ``(state, energy)`` with ``energy`` at most the merged state's.

    ``solve_block`` defaults to exact enumeration for chunks of at most
    20 variables; the fleet solver passes its own block solver so the
    reconciliation pass shares the solve's block caches.  Chunk seeds
    derive from ``seed`` via the harness scheme, so the pass is
    deterministic and independent of dispatch concurrency.
    """
    merged = np.array(state, dtype=float)
    energy = float(model.energies_compat(merged)[0])
    if not len(frontier):
        return merged, energy
    solver = _default_block_solver if solve_block is None else solve_block
    for start in range(0, len(frontier), _CHUNK_SIZE):
        chunk = frontier[start : start + _CHUNK_SIZE]
        sub = model.clamp(chunk, merged)
        chunk_seed = derive_seed(seed, _SEED_SCOPE, {"chunk": start})
        chunk_state, chunk_energy = solver(sub, chunk_seed)
        if chunk_energy < energy - 1e-9:
            merged[np.sort(chunk)] = chunk_state
            energy = chunk_energy

    # Final exact single-flip descent over the entire frontier: the
    # clamped subproblem's flip deltas equal the full model's for
    # frontier variables, so on exit no frontier flip improves.
    positions = np.sort(np.asarray(frontier, dtype=np.intp))
    sub = model.clamp(positions, merged)
    descended = descend(sub, merged[positions])
    candidate_energy = float(sub.energies_compat(descended)[0])
    if candidate_energy < energy - 1e-12:
        merged[positions] = descended
        energy = candidate_energy
    return merged, energy
