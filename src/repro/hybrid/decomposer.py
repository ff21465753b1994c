"""Subproblem selection and boundary clamping for hybrid solvers.

The qbsolv-style decomposition loop needs two primitives:

* **variable selection** — which ``sub_size``-sized subsets of the
  model's variables to re-optimize this round.  The primary strategy
  ranks variables by *energy impact* (the energy change of flipping
  the variable against the incumbent sample, most improving first) so
  the blocks chase descent directions.  The fallback partitions the
  interaction graph by *strong couplings*: variables joined by
  penalty-scale quadratic terms (the one-plan-per-query cliques of the
  MQO encoding, the successor chains of the join-ordering encoding)
  form components that must move together — single flips across them
  are always rejected — and components are packed into blocks by their
  mutual coupling weight so the exact sub-solve can trade off the
  terms that actually interact;
* **clamping** — freezing every variable outside the selected block at
  its incumbent value, which folds boundary couplings into the
  subproblem's linear biases and offset
  (:meth:`~repro.qubo.compiled.CompiledBQM.clamp`), so the
  subproblem's energies equal full-model energies of the patched
  incumbent.

The decomposition loop runs on a :class:`~repro.qubo.compiled.CompiledBQM`
and state vectors: the ``*_indices`` functions, :func:`flip_gains` and
:func:`descend` work on its edge arrays and take and return variable
indices.  :func:`clamp_subproblem` is the dict-model clamp that tests
and ``repro verify`` hold the array clamp against.

All orderings tie-break on ``str(variable)``, keeping the decomposition
independent of dict insertion order and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import SolverError
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.compiled import CompiledBQM

Variable = Hashable
Sample = Mapping[Variable, int]

#: an edge is *strong* when ``|bias| >= STRONG_RATIO * max|bias|``
STRONG_RATIO = 0.5


# ----------------------------------------------------------------------
# Array primitives (variable indices, state vectors)
# ----------------------------------------------------------------------
def flip_gains(model: CompiledBQM, state: np.ndarray) -> np.ndarray:
    """Energy change of flipping each variable of ``state``.

    Works in the model's native domain: binary variables toggle 0↔1,
    spin variables negate.  Negative gain means the flip improves.  Each
    local field sums its couplings in edge order, as the dict walk did.
    """
    fields = model.linear.copy()
    ends = np.column_stack((model.edge_u, model.edge_v)).ravel()
    pulls = np.column_stack(
        (model.edge_bias * state[model.edge_v], model.edge_bias * state[model.edge_u])
    ).ravel()
    np.add.at(fields, ends, pulls)
    lo, hi = model.vartype.values
    return (lo + hi - 2.0 * state) * fields


def descend(model: CompiledBQM, state: np.ndarray) -> np.ndarray:
    """Flip single variables of ``state`` until no flip improves.

    Repeatedly applies the single most-improving flip (ties broken on
    ``str(var)``), maintaining flip gains incrementally — one flip
    costs ``O(degree)``, not a full model walk.  Returns a new state.
    """
    state = np.array(state, dtype=float)
    lo, hi = model.vartype.values
    gains = flip_gains(model, state)
    order = np.asarray(model.str_order, dtype=np.intp)
    neighbors, couplings = model.neighbor_index, model.neighbor_bias
    for _ in range(8 * max(1, model.num_variables)):
        ranked = gains[order]
        k = int(np.argmin(ranked))
        if not ranked[k] < -1e-12:
            break
        best = order[k]
        old = state[best]
        new = lo + hi - old
        state[best] = new
        gains[best] = -gains[best]
        # gain(u) = (flip_u - x_u) * field_u; field_u shifts by
        # bias * (new - old) when its neighbour flips
        near = neighbors[best]
        gains[near] += (lo + hi - 2.0 * state[near]) * couplings[best] * (new - old)
    return state


def energy_impact_indices(
    model: CompiledBQM, state: np.ndarray, sub_size: int
) -> List[List[int]]:
    """Blocks of ``sub_size`` variable indices, most-improving flips first.

    Covers every variable exactly once, so iterating the returned
    blocks is one full round-robin pass over the model.
    """
    if sub_size < 1:
        raise SolverError("sub_size must be positive")
    ranked = np.lexsort((model.str_rank, flip_gains(model, state))).tolist()
    return [ranked[i : i + sub_size] for i in range(0, len(ranked), sub_size)]


def strong_component_indices(model: CompiledBQM) -> List[List[int]]:
    """Connected components of the strong-coupling subgraph.

    An edge is *strong* when ``|bias| >= STRONG_RATIO * max|bias|``; in
    penalty-encoded QUBOs that keeps exactly the constraint couplings
    (e.g. each query's one-plan clique) and drops the cost/savings
    terms.  Models without quadratic terms yield singletons.
    """
    ordered = model.str_order
    if not model.num_interactions:
        return [[i] for i in ordered]
    strength = np.abs(model.edge_bias)
    strong = strength >= STRONG_RATIO * strength.max()
    adjacency: List[List[int]] = [[] for _ in range(model.num_variables)]
    for u, v in zip(model.edge_u[strong].tolist(), model.edge_v[strong].tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    rank = model.str_rank.tolist()
    for neighbors in adjacency:
        neighbors.sort(key=rank.__getitem__)

    components: List[List[int]] = []
    seen = [False] * model.num_variables
    for root in ordered:
        if seen[root]:
            continue
        component: List[int] = []
        queue = [root]
        seen[root] = True
        while queue:
            v = queue.pop(0)
            component.append(v)
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        components.append(component)
    return components


def component_weight_indices(
    model: CompiledBQM, components: Sequence[Sequence[int]]
) -> Dict[Tuple[int, int], float]:
    """Total |coupling| between each pair of components, summed in edge order."""
    where = np.empty(model.num_variables, dtype=np.intp)
    for index, component in enumerate(components):
        where[list(component)] = index
    first, second = where[model.edge_u], where[model.edge_v]
    cross = first != second
    weights: Dict[Tuple[int, int], float] = {}
    for i, j, weight in zip(
        np.minimum(first, second)[cross].tolist(),
        np.maximum(first, second)[cross].tolist(),
        np.abs(model.edge_bias[cross]).tolist(),
    ):
        weights[(i, j)] = weights.get((i, j), 0.0) + weight
    return weights


def pack_components(
    components: Sequence[Sequence[Variable]],
    weights: Mapping[Tuple[int, int], float],
    order: Sequence[int],
    sub_size: int,
) -> List[List[Variable]]:
    """Pack components into ``sub_size``-bounded blocks by connectivity.

    Each block is seeded with the next unused component in ``order``
    and greedily grown with the unused component most strongly coupled
    to it, so the variables a sub-solve can actually trade off end up
    together.  Components larger than ``sub_size`` are chopped.
    """
    if sub_size < 1:
        raise SolverError("sub_size must be positive")
    split: List[List[Variable]] = []
    split_order: List[int] = []
    for index in order:
        component = list(components[index])
        if len(component) <= sub_size:
            split_order.append(len(split))
            split.append(component)
        else:
            for start in range(0, len(component), sub_size):
                split_order.append(len(split))
                split.append(component[start : start + sub_size])

    used: set = set()
    blocks: List[List[Variable]] = []
    for seed_index in split_order:
        if seed_index in used:
            continue
        block_indices = [seed_index]
        used.add(seed_index)
        size = len(split[seed_index])
        while True:
            best = None
            best_weight = 0.0
            for candidate in split_order:
                if candidate in used or size + len(split[candidate]) > sub_size:
                    continue
                connection = sum(
                    weights.get((min(candidate, member), max(candidate, member)), 0.0)
                    for member in block_indices
                )
                if connection > best_weight:
                    best, best_weight = candidate, connection
            if best is None:
                for candidate in split_order:
                    if candidate not in used and size + len(split[candidate]) <= sub_size:
                        best = candidate
                        break
            if best is None:
                break
            block_indices.append(best)
            used.add(best)
            size += len(split[best])
        blocks.append([v for index in block_indices for v in split[index]])
    return blocks


# ----------------------------------------------------------------------
# Dict-model reference
# ----------------------------------------------------------------------
def clamp_subproblem(
    bqm: BinaryQuadraticModel, free: Sequence[Variable], sample: Sample
) -> BinaryQuadraticModel:
    """Restrict ``bqm`` to ``free``, fixing all other variables.

    The returned model's energy over the free variables equals the full
    model's energy of ``sample`` patched with the free assignment, so
    sub-solver energies are directly comparable to the incumbent's.
    The dict-model reference for :meth:`CompiledBQM.clamp`.
    """
    free_set = set(free)
    unknown = free_set - set(bqm.variables)
    if unknown:
        raise SolverError(f"free variables not in model: {sorted(map(str, unknown))}")
    sub = bqm.copy()
    for v in bqm.variables:
        if v not in free_set:
            sub.fix_variable(v, sample[v])
    return sub
