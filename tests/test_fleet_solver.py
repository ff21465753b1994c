"""Fleet-mode :class:`DecomposingSolver` and boundary reconciliation.

Two contracts are pinned here:

* **determinism** — on a homogeneous fleet, the solve is bit-identical
  across fleet sizes (golden-seed tests below; the ``fleet-scaling``
  experiment asserts the same at larger sizes);
* **reconciliation soundness** — the merged assignment accepted after a
  round of independent shard solves is never worse than the naive shard
  concatenation (hypothesis property below; the ``shard-reconciliation``
  verify invariant sweeps the same property over the corpus).
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annealers import AnnealerFleet
from repro.exceptions import SolverError
from repro.hybrid import DecomposingSolver, frontier_variables, reconcile_boundary
from repro.hybrid.decomposer import clamp_subproblem
from repro.hybrid.registry import make_solver
from repro.mqo import mqo_to_bqm, random_mqo_problem
from repro.qubo import BinaryQuadraticModel
from repro.qubo.exact import brute_force_minimum


def random_bqm(n: int, seed: int, density: float = 0.5) -> BinaryQuadraticModel:
    rng = np.random.default_rng(seed)
    bqm = BinaryQuadraticModel()
    names = [f"v{i}" for i in range(n)]
    for i, u in enumerate(names):
        bqm.add_linear(u, float(rng.normal()))
        for v in names[i + 1 :]:
            if rng.random() < density:
                bqm.add_quadratic(u, v, float(rng.normal()))
    return bqm


# ----------------------------------------------------------------------
# reconciliation soundness
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(6, 13))
def test_reconciled_merge_never_worse_than_naive_concatenation(seed, n):
    """Property: reconcile_boundary(naive merge) <= naive merge energy.

    Models one fleet round exactly: split the variables into two
    shards, solve each clamped shard *independently* against the same
    incumbent (the step whose optimality assumption the merge breaks),
    patch both answers in at once, then reconcile the frontier.
    """
    bqm = random_bqm(n, seed)
    rng = np.random.default_rng(seed + 1)
    variables = sorted(bqm.variables, key=str)
    incumbent = {v: int(rng.integers(2)) for v in variables}
    half = len(variables) // 2
    blocks = [variables[:half], variables[half:]]

    naive = dict(incumbent)
    for block in blocks:
        sub = clamp_subproblem(bqm, block, incumbent)
        naive.update(dict(brute_force_minimum(sub).sample))
    naive_energy = bqm.energy(naive)

    frontier = frontier_variables(bqm, blocks)
    merged, energy = reconcile_boundary(bqm, naive, frontier, seed=seed)
    assert energy <= naive_energy + 1e-9
    assert energy == pytest.approx(bqm.energy(merged), abs=1e-9)
    # post-condition of the final clamped descent: no improving
    # single flip is left on the frontier
    for v in frontier:
        flipped = dict(merged)
        flipped[v] = 1 - flipped[v]
        assert bqm.energy(flipped) >= energy - 1e-9


def test_frontier_variables_are_exactly_cross_block_couplings():
    bqm = BinaryQuadraticModel()
    for name in "abcd":
        bqm.add_linear(name, 1.0)
    bqm.add_quadratic("a", "b", 1.0)  # inside block 0
    bqm.add_quadratic("b", "c", 1.0)  # crosses
    bqm.add_quadratic("c", "d", 1.0)  # inside block 1
    assert frontier_variables(bqm, [["a", "b"], ["c", "d"]]) == ["b", "c"]
    assert frontier_variables(bqm, [["a", "b", "c", "d"]]) == []


# ----------------------------------------------------------------------
# golden-seed determinism: fleet-of-N == single annealer
# ----------------------------------------------------------------------
def _solve(fleet_size: int, bqm, seed: int, **kwargs):
    solver = DecomposingSolver(
        fleet=AnnealerFleet.homogeneous(fleet_size), **kwargs
    )
    return solver.solve(bqm, seed=seed)


def test_small_instance_identical_across_fleet_sizes():
    # 8 variables fits one device's native clique: the fleet must be
    # bit-identical to the single annealer whatever its size
    bqm = mqo_to_bqm(random_mqo_problem(4, 2, seed=12))
    single = _solve(1, bqm, seed=5)
    for size in (2, 3):
        fleet = _solve(size, bqm, seed=5)
        assert fleet.sample == single.sample
        assert fleet.energy == single.energy
    assert single.info["decomposed"] is False


def test_decomposed_instance_identical_across_fleet_sizes():
    bqm = mqo_to_bqm(random_mqo_problem(10, 3, seed=8))
    single = _solve(1, bqm, seed=3, restarts=1, max_rounds=3)
    fleet = _solve(4, bqm, seed=3, restarts=1, max_rounds=3)
    assert fleet.sample == single.sample
    assert fleet.energy == single.energy
    assert fleet.info["decomposed"] is True
    assert fleet.info["fleet_size"] == 4


#: SHA-256 of the fleet solves in ``_FLEET_DIGEST_CASES`` (sample,
#: ``repr(energy)`` and ``info`` minus ``fleet_size``) at fleet sizes 1
#: and 3.  Fleet-size invariance alone cannot catch a change that moves
#: every size at once; this pin can -- do not re-pin it to paper over a
#: change that was meant to be bit-identical
FLEET_DIGEST = "30cc31f785adbf464aa5d8c3a393fb6d733a34d6c8a0e6e50e8c1ff01cff8a25"

#: (queries, plans per query, problem seed, solve seed, solver options)
_FLEET_DIGEST_CASES = (
    (4, 2, 12, 5, {}),  # 8 variables: one block, a single dispatch
    (10, 3, 8, 3, {"restarts": 1, "max_rounds": 3}),  # decomposed
    (9, 3, 1, 2, {"restarts": 3, "max_rounds": 2}),  # perturbing restart
    (8, 3, 4, 0, {"sub_size": 8, "restarts": 4, "max_rounds": 2}),
)


def test_fleet_solves_pinned_by_digest():
    rows = []
    for queries, plans, problem_seed, seed, options in _FLEET_DIGEST_CASES:
        bqm = mqo_to_bqm(random_mqo_problem(queries, plans, seed=problem_seed))
        for size in (1, 3):
            result = _solve(size, bqm, seed=seed, **options)
            info = {k: v for k, v in result.info.items() if k != "fleet_size"}
            rows.append([
                sorted([str(v), x] for v, x in result.sample.items()),
                repr(result.energy),
                sorted([k, repr(v)] for k, v in info.items()),
            ])
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == FLEET_DIGEST


def test_registry_fleet_solver():
    solver = make_solver("fleet", fleet_size=2, restarts=1, max_rounds=2)
    assert solver.name == "fleet"
    result = solver.solve(mqo_to_bqm(random_mqo_problem(3, 2, seed=2)), seed=1)
    assert result.sample
    assert result.info["fleet_size"] == 2


def test_fleet_below_minimum_capacity_rejected():
    # a 1x1 Chimera cell with t=1 natively fits a single variable:
    # too small to decompose against, so the solver refuses the fleet
    tiny = AnnealerFleet.homogeneous(1, m=1, t=1)
    assert tiny.min_capacity() == 1
    with pytest.raises(SolverError):
        DecomposingSolver(fleet=tiny)
