"""Solvers for MQO instances — classical baselines and quantum paths.

Classical baselines (the comparison points of [Trummer & Koch 2016]):

* :func:`solve_greedy_local` — pick each query's cheapest plan,
  ignoring savings (the "locally optimal" strategy of the paper's
  Sec. 4.1 example);
* :func:`solve_exhaustive` — enumerate the ``∏|P_q|`` selections;
* :func:`solve_genetic` — the genetic-algorithm baseline of
  [Bayir et al. 2006]: one gene per query, tournament selection,
  uniform crossover and per-gene mutation.

Quantum paths (via the QUBO of Sec. 5.1):

* :func:`solve_with_minimum_eigen` — VQE/QAOA/exact eigensolver on a
  gate-model simulator;
* :func:`solve_with_annealer` — simulated annealing (optionally
  topology-restricted through the Ocean-style composites);
* :func:`solve_with_solver` — any solver from the unified registry
  (:mod:`repro.hybrid.registry`), with optional selection repair.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.exceptions import SolverError
from repro.annealing.simulated_annealing import SimulatedAnnealingSampler
from repro.mqo.problem import MqoProblem, MqoSolution
from repro.mqo.qubo import MqoQuboBuilder


def solve_greedy_local(problem: MqoProblem) -> MqoSolution:
    """Cheapest plan per query, savings ignored."""
    selected = [
        min(plans, key=lambda p: p.cost).plan_id
        for plans in problem.plans_by_query().values()
    ]
    return MqoSolution.from_selection(problem, selected, method="greedy-local")


def solve_exhaustive(problem: MqoProblem, max_combinations: int = 2_000_000) -> MqoSolution:
    """Enumerate every valid selection; guaranteed optimal."""
    groups = list(problem.plans_by_query().values())
    total = 1
    for g in groups:
        total *= len(g)
    if total > max_combinations:
        raise SolverError(
            f"{total} combinations exceed the exhaustive limit {max_combinations}"
        )
    best: Optional[MqoSolution] = None
    for combo in itertools.product(*groups):
        selection = [p.plan_id for p in combo]
        cost = problem.execution_cost(selection)
        if best is None or cost < best.cost:
            best = MqoSolution(
                problem=problem,
                selected_plans=tuple(sorted(selection)),
                cost=cost,
                method="exhaustive",
            )
    assert best is not None  # groups is non-empty by construction
    return best


def solve_genetic(
    problem: MqoProblem,
    population_size: int = 60,
    generations: int = 120,
    mutation_rate: float = 0.05,
    tournament: int = 3,
    seed: Optional[int] = None,
) -> MqoSolution:
    """Genetic-algorithm baseline ([Bayir et al. 2006] style).

    A chromosome assigns one plan index per query, so every individual
    is valid by construction and fitness is the exact Eq. 25 cost.
    """
    rng = np.random.default_rng(seed)
    groups = list(problem.plans_by_query().values())
    sizes = np.array([len(g) for g in groups])

    def cost_of(chromosome: np.ndarray) -> float:
        selection = [groups[q][chromosome[q]].plan_id for q in range(len(groups))]
        return problem.execution_cost(selection)

    population = np.stack(
        [rng.integers(0, sizes) for _ in range(population_size)]
    )
    costs = np.array([cost_of(ind) for ind in population])

    for _ in range(generations):
        children = []
        for _ in range(population_size):
            # tournament selection of two parents
            picks = rng.integers(0, population_size, size=(2, tournament))
            parents = [
                population[picks[i][np.argmin(costs[picks[i]])]] for i in range(2)
            ]
            mask = rng.random(len(groups)) < 0.5
            child = np.where(mask, parents[0], parents[1])
            mutate = rng.random(len(groups)) < mutation_rate
            if mutate.any():
                child = child.copy()
                child[mutate] = rng.integers(0, sizes)[mutate]
            children.append(child)
        children = np.stack(children)
        child_costs = np.array([cost_of(ind) for ind in children])
        merged = np.concatenate([population, children])
        merged_costs = np.concatenate([costs, child_costs])
        order = np.argsort(merged_costs)[:population_size]
        population, costs = merged[order], merged_costs[order]

    best = population[int(np.argmin(costs))]
    selection = [groups[q][best[q]].plan_id for q in range(len(groups))]
    return MqoSolution.from_selection(problem, selection, method="genetic")


def solve_with_minimum_eigen(
    problem: MqoProblem,
    solver,
    max_qubits: int = 32,
) -> MqoSolution:
    """Solve via the QUBO + a gate-model eigensolver (VQE/QAOA/exact)."""
    # imported here: the variational stack pulls scipy.optimize and
    # networkx, which the serving path (this module's greedy repair) avoids
    from repro.variational.minimum_eigen import MinimumEigenOptimizer

    builder = MqoQuboBuilder(problem)
    bqm = builder.build()
    optimizer = MinimumEigenOptimizer(solver, max_qubits=max_qubits)
    result = optimizer.solve(bqm)
    # prefer the best *valid* candidate among all measured samples —
    # candidates arrive in measurement order, so rank by energy first
    # or a high-energy valid sample would shadow the optimum
    ranked = sorted(
        [(result.sample, result.fval)] + list(result.candidates),
        key=lambda item: item[1],
    )
    for sample, _ in ranked:
        solution = builder.decode(sample, method=type(solver).__name__.lower())
        if solution.valid:
            return solution
    return builder.decode(result.sample, method=type(solver).__name__.lower())


def repair_selection(problem: MqoProblem, selected) -> list:
    """Project a (possibly invalid) selection onto one plan per query.

    Queries with exactly one selected plan keep it; over-covered
    queries keep their cheapest selected plan; uncovered queries get
    their locally cheapest plan.  Valid selections pass through
    unchanged.
    """
    selected_set = set(selected)
    repaired = []
    for plans in problem.plans_by_query().values():
        hits = [p for p in plans if p.plan_id in selected_set]
        pool = hits if hits else list(plans)
        repaired.append(min(pool, key=lambda p: (p.cost, p.plan_id)).plan_id)
    return repaired


def solve_with_solver(
    problem: MqoProblem,
    solver,
    seed: Optional[int] = None,
    repair: bool = True,
) -> MqoSolution:
    """Solve via the QUBO + any registry :class:`~repro.hybrid.Solver`.

    Routes the instance through ``solver.solve(bqm, seed=…)`` (hybrid,
    tabu, sa, genetic, … — anything from
    :func:`repro.hybrid.make_solver`) and decodes the best sample.
    With ``repair=True`` (default) an invalid sample is projected back
    to one plan per query via :func:`repair_selection` instead of
    being returned invalid.
    """
    builder = MqoQuboBuilder(problem)
    bqm = builder.build()
    result = solver.solve(bqm, seed=seed)
    solution = builder.decode(result.sample, method=result.solver)
    if solution.valid or not repair:
        return solution
    repaired = repair_selection(problem, solution.selected_plans)
    return MqoSolution.from_selection(
        problem, repaired, method=f"{result.solver}+repair"
    )


def solve_with_annealer(
    problem: MqoProblem,
    sampler: Optional[SimulatedAnnealingSampler] = None,
    num_reads: int = 50,
    seed: Optional[int] = None,
) -> MqoSolution:
    """Solve via the QUBO + (simulated) annealing.

    Pass an :class:`~repro.annealing.composites.EmbeddingComposite` as
    ``sampler`` to include topology restrictions and minor embedding.
    """
    builder = MqoQuboBuilder(problem)
    bqm = builder.build()
    sampler = sampler or SimulatedAnnealingSampler(seed=seed)
    sample_set = sampler.sample(bqm, num_reads=num_reads)
    for record in sample_set:
        solution = builder.decode(record.sample, method="annealing")
        if solution.valid:
            return solution
    return builder.decode(sample_set.first.sample, method="annealing")
