"""Unified solver registry: every end-to-end QUBO path behind one protocol.

The repository grew one solver entry point per subsystem — brute-force
enumeration in :mod:`repro.qubo.exact`, annealing samplers in
:mod:`repro.annealing`, gate-model eigensolvers in
:mod:`repro.variational`, and now the hybrid decomposing solver.  This
module puts them behind a single :class:`Solver` protocol —

``name`` / ``capabilities`` / ``max_variables`` / ``solve(bqm, seed)``

— so experiments can sweep solver names as grid dimensions through the
harness, and the CLI can route ``--solver <name>`` without per-solver
plumbing.  :func:`make_solver` instantiates by name with keyword
options (unknown option names raise
:class:`~repro.exceptions.ConfigurationError` listing the valid ones);
:func:`register_solver` lets extensions add entries.

Every built-in ``solve`` takes a
:class:`~repro.qubo.compiled.CompiledBQM` (the service chains hand each
stage the cached compiled model) or a dict
:class:`~repro.qubo.bqm.BinaryQuadraticModel`, compiled on entry (the
gate-model eigensolvers instead convert a compiled model back with
``to_bqm()``).
Solvers whose ``solve`` accepts a ``time_budget`` keyword (seconds)
stop cooperatively once the budget is spent and return the best sample
found so far — the contract the service layer's deadline-aware
fallback chains rely on (probe with :func:`supports_time_budget`).

Registered names
----------------
==============  ====================================================
``greedy``      steepest single-flip descent (with seeded restarts)
``genetic``     genetic algorithm over bitstrings
``exact``       brute-force enumeration (alias: ``exhaustive``)
``sa``          simulated annealing (:mod:`repro.annealing`)
``tabu``        tabu search (:mod:`repro.hybrid.tabu`)
``exact-eigen``  NumPy minimum eigensolver on the Ising Hamiltonian
``vqe``         variational quantum eigensolver (statevector)
``qaoa``        QAOA (statevector)
``hybrid``      decomposing hybrid solver (:mod:`repro.hybrid.solver`)
``fleet``       hybrid solver sharding across a multi-annealer fleet
                (:mod:`repro.annealers`; boundary-reconciled merges)
==============  ====================================================
"""

from __future__ import annotations

import inspect
import weakref
from typing import (
    Callable, Dict, Hashable, List, Optional, Protocol, Tuple, Union, runtime_checkable,
)

import numpy as np

from repro.exceptions import ConfigurationError, SolverError
from repro.annealing.simulated_annealing import SimulatedAnnealingSampler
from repro.hybrid.decomposer import descend
from repro.hybrid.solver import (
    DecomposingSolver,
    SolveResult,
    budget_deadline,
    budget_spent,
    state_energy,
)
from repro.hybrid.tabu import TabuSampler
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.compiled import CompiledBQM, as_compiled
from repro.qubo.exact import brute_force_minimum


@runtime_checkable
class Solver(Protocol):
    """What every registry entry provides."""

    name: str
    capabilities: frozenset
    max_variables: Optional[int]

    def solve(
        self, bqm: BinaryQuadraticModel, seed: Optional[int] = None
    ) -> SolveResult:  # pragma: no cover - protocol stub
        ...


def supports_time_budget(solver: "Solver") -> bool:
    """Does ``solver.solve`` accept a ``time_budget`` keyword?"""
    return accepts_keyword(solver.solve, "time_budget")


def accepts_keyword(func, keyword: str) -> bool:
    """Does ``func`` take a parameter named ``keyword``?"""
    parameters = _signature_parameters(func)
    return parameters is not None and any(p.name == keyword for p in parameters)


#: signature parameters of plain callables and of bound methods, keyed
#: weakly by the underlying function so no entry pins a solver instance
_PLAIN_SIGNATURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_BOUND_SIGNATURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _signature_parameters(func) -> Optional[Tuple[inspect.Parameter, ...]]:
    """``inspect.signature(func)``'s parameters, or ``None`` if uninspectable.

    The service probes every stage of every request, so each function's
    signature is computed once.  A bound method is cached under its
    ``__func__``, never under the method itself, which would pin the
    instance; every method bound to one function has the same signature.
    """
    target = getattr(func, "__func__", func)
    cache = _PLAIN_SIGNATURES if target is func else _BOUND_SIGNATURES
    try:
        return cache[target]
    except (KeyError, TypeError):
        pass
    try:
        parameters = tuple(inspect.signature(func).parameters.values())
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        parameters = None
    try:
        cache[target] = parameters
    except TypeError:  # pragma: no cover - not weak-referenceable
        pass
    return parameters


def check_size(solver: "Solver", bqm: BinaryQuadraticModel) -> None:
    """Raise when a model exceeds a solver's variable budget."""
    limit = solver.max_variables
    if limit is not None and bqm.num_variables > limit:
        raise SolverError(
            f"solver {solver.name!r} handles at most {limit} variables, "
            f"model has {bqm.num_variables}"
        )


# ----------------------------------------------------------------------
# Classical baselines at the BQM level
# ----------------------------------------------------------------------
class GreedySolver:
    """Steepest single-flip descent from seeded random restarts."""

    name = "greedy"
    capabilities = frozenset({"heuristic", "classical"})
    max_variables: Optional[int] = None

    def __init__(self, restarts: int = 8, seed: Optional[int] = None) -> None:
        if restarts < 1:
            raise SolverError("restarts must be positive")
        self.restarts = restarts
        self.seed = seed

    def solve(
        self,
        bqm: Union[BinaryQuadraticModel, CompiledBQM],
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveResult:
        model = as_compiled(bqm)
        if model.num_variables == 0:
            return SolveResult(sample={}, energy=model.offset, solver=self.name)
        deadline = budget_deadline(time_budget)
        rng = np.random.default_rng(self.seed if seed is None else seed)
        lo, hi = model.vartype.values
        best_sample: Dict[Hashable, int] = {}
        best_energy = float("inf")
        for restart in range(self.restarts):
            if restart > 0 and budget_spent(deadline):
                break
            state = descend(model, rng.choice((lo, hi), size=model.num_variables))
            energy = state_energy(model, state)
            if energy < best_energy:
                best_sample, best_energy = model.to_sample(state), energy
        return SolveResult(sample=best_sample, energy=best_energy, solver=self.name)


class GeneticSolver:
    """Genetic algorithm over bitstrings with energy fitness.

    The BQM-level analogue of the [Bayir et al. 2006] MQO baseline:
    tournament selection, uniform crossover, per-bit mutation,
    elitist merge.
    """

    name = "genetic"
    capabilities = frozenset({"heuristic", "classical"})
    max_variables: Optional[int] = None

    def __init__(
        self,
        population_size: int = 40,
        generations: int = 60,
        mutation_rate: float = 0.02,
        tournament: int = 3,
        seed: Optional[int] = None,
    ) -> None:
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.tournament = tournament
        self.seed = seed

    def solve(
        self,
        bqm: Union[BinaryQuadraticModel, CompiledBQM],
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveResult:
        model = as_compiled(bqm)
        if model.num_variables == 0:
            return SolveResult(sample={}, energy=model.offset, solver=self.name)
        deadline = budget_deadline(time_budget)
        rng = np.random.default_rng(self.seed if seed is None else seed)
        lo, hi = model.vartype.values
        n = model.num_variables

        population = rng.choice((lo, hi), size=(self.population_size, n))
        costs = model.energies_compat(population)
        for _ in range(self.generations):
            if budget_spent(deadline):
                break
            children = []
            for _ in range(self.population_size):
                picks = rng.integers(
                    0, self.population_size, size=(2, self.tournament)
                )
                parents = [
                    population[picks[i][np.argmin(costs[picks[i]])]]
                    for i in range(2)
                ]
                mask = rng.random(n) < 0.5
                child = np.where(mask, parents[0], parents[1])
                mutate = rng.random(n) < self.mutation_rate
                if mutate.any():
                    child = child.copy()
                    child[mutate] = rng.choice((lo, hi), size=n)[mutate]
                children.append(child)
            children = np.stack(children)
            child_costs = model.energies_compat(children)
            merged = np.concatenate([population, children])
            merged_costs = np.concatenate([costs, child_costs])
            order = np.argsort(merged_costs, kind="stable")[: self.population_size]
            population, costs = merged[order], merged_costs[order]
        best = population[int(np.argmin(costs))]
        return SolveResult(
            sample=model.to_sample(best), energy=float(costs.min()), solver=self.name
        )


class ExactSolver:
    """Brute-force enumeration (the ``ExactQuboSolver`` path)."""

    name = "exact"
    capabilities = frozenset({"exact", "classical"})
    max_variables: Optional[int] = 26

    def solve(
        self, bqm: Union[BinaryQuadraticModel, CompiledBQM], seed: Optional[int] = None
    ) -> SolveResult:
        check_size(self, bqm)
        result = brute_force_minimum(bqm)
        return SolveResult(
            sample=dict(result.sample),
            energy=float(result.energy),
            solver=self.name,
            info={"num_optima": len(result.all_optima)},
        )


class SamplerSolver:
    """Adapter for Ocean-style ``sample(model, num_reads, seed)`` samplers
    that take either model form."""

    max_variables: Optional[int] = None

    def __init__(
        self,
        sampler,
        name: str,
        capabilities: frozenset,
        num_reads: int = 25,
    ) -> None:
        self.sampler = sampler
        self.name = name
        self.capabilities = capabilities
        self.num_reads = num_reads

    def solve(
        self,
        bqm: Union[BinaryQuadraticModel, CompiledBQM],
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveResult:
        if bqm.num_variables == 0:
            return SolveResult(sample={}, energy=bqm.offset, solver=self.name)
        if time_budget is None:
            sample_set = self.sampler.sample(bqm, num_reads=self.num_reads, seed=seed)
            best = sample_set.first
            return SolveResult(
                sample=dict(best.sample), energy=float(best.energy), solver=self.name
            )
        # budgeted path: issue reads one at a time (per-read seeds drawn
        # up front so the k-reads-completed outcome is seed-deterministic)
        # and stop once the budget is spent; the first read always runs.
        deadline = budget_deadline(time_budget)
        rng = np.random.default_rng(seed)
        read_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.num_reads)]
        best = None
        reads_done = 0
        for read_seed in read_seeds:
            record = self.sampler.sample(bqm, num_reads=1, seed=read_seed).first
            reads_done += 1
            if best is None or record.energy < best.energy - 1e-12:
                best = record
            if budget_spent(deadline):
                break
        return SolveResult(
            sample=dict(best.sample),
            energy=float(best.energy),
            solver=self.name,
            info={"reads": reads_done, "budgeted": True},
        )


class EigenSolver:
    """Gate-model path: Ising Hamiltonian + a minimum eigensolver.

    ``kind`` selects ``exact-eigen`` (NumPy diagonalization), ``vqe``
    or ``qaoa``.  Statevector simulation is exponential in qubits, so
    ``max_variables`` defaults to 20 (the paper's practical ceiling
    sits at ~32, Sec. 6.3.4).
    """

    def __init__(
        self,
        kind: str = "exact-eigen",
        max_variables: int = 20,
        maxiter: int = 150,
        reps: int = 1,
    ) -> None:
        if kind not in ("exact-eigen", "vqe", "qaoa"):
            raise SolverError(f"unknown eigensolver kind {kind!r}")
        self.kind = kind
        self.name = kind
        self.capabilities = frozenset(
            {"gate-model"} | ({"exact"} if kind == "exact-eigen" else {"heuristic"})
        )
        self.max_variables = max_variables
        self.maxiter = maxiter
        self.reps = reps

    def solve(
        self, bqm: Union[BinaryQuadraticModel, CompiledBQM], seed: Optional[int] = None
    ) -> SolveResult:
        from repro.variational.minimum_eigen import (
            MinimumEigenOptimizer,
            NumPyMinimumEigensolver,
        )

        check_size(self, bqm)
        # the Ising Hamiltonian is built from the dict model
        if isinstance(bqm, CompiledBQM):
            bqm = bqm.to_bqm()
        if self.kind == "exact-eigen":
            inner = NumPyMinimumEigensolver()
        elif self.kind == "vqe":
            from repro.variational.optimizers import Cobyla
            from repro.variational.vqe import VQE

            inner = VQE(
                optimizer=Cobyla(maxiter=self.maxiter), reps=self.reps, seed=seed
            )
        else:
            from repro.variational.optimizers import Cobyla
            from repro.variational.qaoa import QAOA

            inner = QAOA(
                optimizer=Cobyla(maxiter=self.maxiter), reps=self.reps, seed=seed
            )
        optimizer = MinimumEigenOptimizer(inner, max_qubits=self.max_variables)
        result = optimizer.solve(bqm)
        # lowest-energy candidate first (covers solvers whose reported
        # sample is not their lowest-energy measurement)
        ranked = sorted(
            [(result.sample, result.fval)] + list(result.candidates),
            key=lambda item: item[1],
        )
        sample, energy = ranked[0]
        return SolveResult(
            sample=dict(sample), energy=float(energy), solver=self.name
        )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[..., Solver]] = {}


def register_solver(
    name: str, factory: Callable[..., Solver], replace: bool = False
) -> None:
    """Add a solver factory under ``name`` (error on collisions)."""
    if name in _FACTORIES and not replace:
        raise SolverError(f"solver {name!r} is already registered")
    _FACTORIES[name] = factory


def solver_names() -> Tuple[str, ...]:
    """All registered names, sorted."""
    return tuple(sorted(_FACTORIES))


def valid_options(name: str) -> Optional[Tuple[str, ...]]:
    """Option names a solver's factory accepts.

    ``None`` means the factory takes ``**kwargs`` (or is uninspectable)
    and therefore opts out of validation.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; registered: {', '.join(solver_names())}"
        ) from None
    parameters = _signature_parameters(factory)
    if parameters is None:  # pragma: no cover - C-level factories
        return None
    names = []
    for parameter in parameters:
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind == inspect.Parameter.VAR_POSITIONAL:
            continue
        names.append(parameter.name)
    return tuple(names)


def make_solver(name: str, **options) -> Solver:
    """Instantiate a registered solver with keyword options.

    Unknown option names raise :class:`ConfigurationError` listing the
    valid ones, so a typo surfaces as a configuration problem instead
    of a bare ``TypeError`` from some inner constructor.
    """
    accepted = valid_options(name)
    if accepted is not None:
        unknown = sorted(set(options) - set(accepted))
        if unknown:
            raise ConfigurationError(
                f"unknown option(s) {', '.join(unknown)} for solver {name!r}; "
                f"valid options: {', '.join(accepted) if accepted else '(none)'}"
            )
    return _FACTORIES[name](**options)


def solver_catalog() -> List[Dict[str, object]]:
    """One descriptive row per registered solver (for CLI listings)."""
    rows = []
    for name in solver_names():
        solver = make_solver(name)
        rows.append(
            {
                "name": name,
                "capabilities": ",".join(sorted(solver.capabilities)),
                "max_variables": solver.max_variables,
            }
        )
    return rows


# Factories carry explicit keyword signatures (no ``**kwargs``) so
# :func:`make_solver` can validate option names against them.
def _make_sa(
    num_reads: int = 25,
    num_sweeps: int = 200,
    beta_range=None,
    seed: Optional[int] = None,
    greedy_postprocess: bool = True,
) -> SamplerSolver:
    return SamplerSolver(
        SimulatedAnnealingSampler(
            num_sweeps=num_sweeps,
            beta_range=beta_range,
            seed=seed,
            greedy_postprocess=greedy_postprocess,
        ),
        name="sa",
        capabilities=frozenset({"heuristic", "annealing"}),
        num_reads=num_reads,
    )


def _make_tabu(
    num_reads: int = 10,
    tenure: Optional[int] = None,
    max_iter: Optional[int] = None,
    stall_limit: Optional[int] = None,
    seed: Optional[int] = None,
) -> SamplerSolver:
    return SamplerSolver(
        TabuSampler(tenure=tenure, max_iter=max_iter, stall_limit=stall_limit, seed=seed),
        name="tabu",
        capabilities=frozenset({"heuristic", "local-search"}),
        num_reads=num_reads,
    )


def _make_exact_eigen(
    max_variables: int = 20, maxiter: int = 150, reps: int = 1
) -> EigenSolver:
    return EigenSolver(
        kind="exact-eigen", max_variables=max_variables, maxiter=maxiter, reps=reps
    )


def _make_vqe(max_variables: int = 20, maxiter: int = 150, reps: int = 1) -> EigenSolver:
    return EigenSolver(kind="vqe", max_variables=max_variables, maxiter=maxiter, reps=reps)


def _make_qaoa(max_variables: int = 20, maxiter: int = 150, reps: int = 1) -> EigenSolver:
    return EigenSolver(kind="qaoa", max_variables=max_variables, maxiter=maxiter, reps=reps)


def _make_fleet(
    fleet_size: int = 2,
    family: str = "chimera",
    m: int = 4,
    t: int = 4,
    num_sweeps: int = 200,
    sub_size: int = 16,
    sub_reads: int = 5,
    max_rounds: int = 32,
    stall_rounds: int = 5,
    restarts: int = 4,
    perturb_fraction: float = 0.3,
    seed: Optional[int] = None,
) -> DecomposingSolver:
    """Decomposing solver sharding across a homogeneous annealer fleet.

    Blocks are additionally capped at the devices' guaranteed embedding
    capacity (the native clique), so every shard the solver produces is
    admissible on every device.
    """
    from repro.annealers import AnnealerFleet  # lazy: keeps import cheap

    fleet = AnnealerFleet.homogeneous(
        fleet_size, family=family, m=m, t=t, num_sweeps=num_sweeps
    )
    return DecomposingSolver(
        sub_size=sub_size,
        sub_reads=sub_reads,
        max_rounds=max_rounds,
        stall_rounds=stall_rounds,
        restarts=restarts,
        perturb_fraction=perturb_fraction,
        seed=seed,
        fleet=fleet,
    )


def _register_builtins() -> None:
    register_solver("greedy", GreedySolver)
    register_solver("genetic", GeneticSolver)
    register_solver("exact", ExactSolver)
    register_solver("exhaustive", ExactSolver)  # MQO-paper terminology
    register_solver("sa", _make_sa)
    register_solver("tabu", _make_tabu)
    register_solver("exact-eigen", _make_exact_eigen)
    register_solver("vqe", _make_vqe)
    register_solver("qaoa", _make_qaoa)
    register_solver("hybrid", DecomposingSolver)
    register_solver("fleet", _make_fleet)


_register_builtins()
