"""The qbsolv-style decomposing hybrid solver.

Large QUBOs exceed both exact enumeration (~26 variables) and the
statevector simulator (~32 qubits), and near-term annealers hold only
hardware-sized subproblems — the bound the paper's evaluation keeps
running into.  The hybrid literature it spawned ([Booth, Reinhardt &
Roy 2017]'s qbsolv, Fankhauser et al.'s hybrid MQO) decomposes: solve
bounded-size subproblems with whatever solver fits them, clamp the
boundary to the incumbent, and iterate until no round improves.

:class:`DecomposingSolver` implements that loop over any
:class:`~repro.qubo.bqm.BinaryQuadraticModel` or
:class:`~repro.qubo.compiled.CompiledBQM`.  It runs on the compiled
model throughout — incumbents are state vectors, blocks are variable
indices, subproblems come from :meth:`CompiledBQM.clamp` — so a served
request never builds a dict model:

1. start each restart from a full-model ``subsolver`` run (or, on
   later restarts, a perturbed copy of the best incumbent), snapped
   into a single-flip minimum by greedy descent;
2. each round, split the variables into ``sub_size``-sized blocks —
   first by *energy impact* against the incumbent, then by the
   strong-coupling *graph partition* with a freshly shuffled component
   packing per round (:mod:`repro.hybrid.decomposer`), so successive
   rounds co-optimize different groups of coupled components;
3. solve each clamped subproblem exactly when it fits under
   ``exact_limit``, otherwise with the pluggable ``subsolver`` (tabu
   search by default, simulated annealing drops in);
4. accept a block's solution whenever it lowers the incumbent energy;
   stop after ``stall_rounds`` consecutive rounds without improvement,
   or after ``max_rounds``.

The run is deterministic for a fixed seed: sub-seeds and the per-round
shuffles come from one ``default_rng`` stream and every ordering
tie-breaks on ``str(var)``.

**Fleet mode.**  Passing ``fleet=`` (an
:class:`~repro.annealers.AnnealerFleet`) runs the same restart and
round loop in the multi-annealer scheduling mode of Trummer & Koch
(arXiv 1510.06437).  Only three things change: blocks are capped at
the fleet's guaranteed capacity, a model that fits one block is a
single dispatch, and each round clamps all of its blocks against the
*same* incumbent, anneals them concurrently across the fleet and
passes the merged assignment through a boundary reconciliation
(:mod:`repro.hybrid.reconcile`) that re-optimizes the frontier
variables shared between shards.  Block solve seeds derive from the
(device spec, subproblem content) pair, and the orchestration stream
and per-round reconciliation seeds from the harness scheme, so
fleet-mode results are bit-identical regardless of fleet size or
dispatch order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import SolverError
from repro.harness import derive_seed
from repro.hybrid.decomposer import (
    component_weight_indices,
    descend,
    energy_impact_indices,
    pack_components,
    strong_component_indices,
)
from repro.hybrid.reconcile import frontier_indices, reconcile_states
from repro.hybrid.tabu import TabuSampler
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.compiled import CompiledBQM, as_compiled
from repro.qubo.exact import brute_force_minimum

_EXACT_HARD_LIMIT = 26  # brute_force_minimum's own ceiling
_FLEET_SEED_SCOPE = "repro.hybrid.fleet"


def budget_deadline(time_budget: Optional[float]) -> Optional[float]:
    """Monotonic-clock deadline for a cooperative time budget."""
    if time_budget is None:
        return None
    return time.monotonic() + max(0.0, float(time_budget))


def budget_spent(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def state_energy(model: CompiledBQM, state: np.ndarray) -> float:
    """``model``'s energy of one state, bit-identical to the dict
    model's :meth:`~repro.qubo.bqm.BinaryQuadraticModel.energy`."""
    return float(model.energies_compat(state)[0])


@dataclass
class _BlockCaches:
    """Per-``solve`` reuse of work on content-identical subproblems.

    ``exact`` memoizes the brute-force optimum of small blocks;
    ``compiled`` keeps the first clamped instance of subsolver-sized
    blocks, so the spin companion and adjacency it derives for the
    subsolver are built once.  Keyed by the clamped subproblem's full
    content (:func:`_subproblem_key`), so a hit is exactly a
    re-encounter of the same block with the same boundary assignment.
    """

    exact: Dict[tuple, tuple] = field(default_factory=dict)
    compiled: Dict[tuple, object] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, table: Dict[tuple, object], sub: CompiledBQM, build):
        """``table``'s entry for ``sub``, made by ``build(sub)`` on a miss."""
        key = _subproblem_key(sub)
        value = table.get(key)
        if value is None:
            self.misses += 1
            value = table[key] = build(sub)
        else:
            self.hits += 1
        return value


def _subproblem_key(sub: CompiledBQM) -> tuple:
    """Content key of a clamped subproblem (exact float equality).

    A clamped block keeps the model's variable order and the couplings
    among its variables, and the incumbent values of its out-of-block
    neighbours land in its linear biases and offset — so its variables,
    biases and offset identify (block, boundary).  ``0.0 +`` maps -0.0
    to 0.0, keeping float equality rather than bit equality.
    """
    return (
        sub.variables,
        sub.offset,
        (0.0 + sub.linear).tobytes(),
        (0.0 + sub.edge_bias).tobytes(),
    )


def _block_positions(block: Sequence[int]) -> np.ndarray:
    """Where a clamped block's variables sit in the full state (the
    subproblem keeps the model's variable order)."""
    return np.sort(np.asarray(block, dtype=np.intp))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a registry/hybrid solve: one best assignment."""

    sample: Dict[Hashable, int]
    energy: float
    solver: str
    #: solver-specific diagnostics (rounds, subproblem count, ...)
    info: Dict[str, object] = field(default_factory=dict)


class DecomposingSolver:
    """Decomposition-based hybrid solver for arbitrarily large BQMs.

    Parameters
    ----------
    sub_size:
        Maximum variables per subproblem (the "hardware size").
    exact_limit:
        Subproblems at or under this size are solved by exact
        enumeration; larger ones go to ``subsolver``.  Defaults to
        ``min(sub_size, 20)`` and is capped at 26.
    subsolver:
        An Ocean-style sampler whose ``sample(model, num_reads=…,
        seed=…)`` takes a :class:`~repro.qubo.compiled.CompiledBQM` as
        its model — :class:`~repro.hybrid.tabu.TabuSampler` (default) or
        :class:`~repro.annealing.simulated_annealing.SimulatedAnnealingSampler`.
        A decomposed solve enumerates each content-identical exact block
        once and hands the subsolver one instance per content,
        reporting ``block_cache_hits``/``block_cache_misses`` in ``info``.
    sub_reads:
        Reads per subsolver call.
    max_rounds:
        Hard cap on decomposition rounds per restart.
    stall_rounds:
        Stop a restart after this many consecutive rounds without an
        accepted improvement.
    restarts:
        Outer iterated-local-search restarts.  The first starts from a
        full-model subsolver run; afterwards odd restarts perturb the
        best incumbent and even restarts take a fresh subsolver start,
        alternating intensification with diversification.  The best
        solution over all restarts wins.
    perturb_fraction:
        Fraction of variables re-randomized on perturbing restarts.
    seed:
        Default seed; ``solve(..., seed=…)`` overrides per call.
    fleet:
        An :class:`~repro.annealers.AnnealerFleet`.  When set, the
        solver switches to fleet mode (registry name ``"fleet"``):
        blocks are capped at the fleet's guaranteed embedding capacity
        (``min(sub_size, fleet.min_capacity())``), each round's blocks
        are clamped against the same incumbent and annealed
        concurrently across the devices, and the merged assignment is
        boundary-reconciled before acceptance.  Devices take dict
        models, so shards are converted at dispatch.
    """

    name = "hybrid"
    capabilities = frozenset({"heuristic", "decomposition", "unbounded-size"})
    max_variables: Optional[int] = None

    def __init__(
        self,
        sub_size: int = 16,
        exact_limit: Optional[int] = None,
        subsolver=None,
        sub_reads: int = 5,
        max_rounds: int = 32,
        stall_rounds: int = 5,
        restarts: int = 4,
        perturb_fraction: float = 0.3,
        seed: Optional[int] = None,
        fleet=None,
    ) -> None:
        if sub_size < 2:
            raise SolverError("sub_size must be at least 2")
        if max_rounds < 1:
            raise SolverError("max_rounds must be positive")
        if stall_rounds < 1:
            raise SolverError("stall_rounds must be positive")
        if restarts < 1:
            raise SolverError("restarts must be positive")
        if not 0.0 < perturb_fraction <= 1.0:
            raise SolverError("perturb_fraction must be in (0, 1]")
        if exact_limit is None:
            exact_limit = min(sub_size, 20)
        if exact_limit > _EXACT_HARD_LIMIT:
            raise SolverError(
                f"exact_limit {exact_limit} exceeds the enumeration "
                f"ceiling {_EXACT_HARD_LIMIT}"
            )
        self.sub_size = sub_size
        self.exact_limit = exact_limit
        self.subsolver = subsolver if subsolver is not None else TabuSampler()
        self.sub_reads = sub_reads
        self.max_rounds = max_rounds
        self.stall_rounds = stall_rounds
        self.restarts = restarts
        self.perturb_fraction = perturb_fraction
        self.seed = seed
        self.fleet = fleet
        if fleet is not None:
            capacity = fleet.min_capacity()
            if capacity < 2:
                raise SolverError(
                    f"fleet capacity {capacity} is too small to host blocks"
                )
            self.name = "fleet"  # instance attr shadows the class attr

    # ------------------------------------------------------------------
    def solve(
        self,
        bqm: Union[BinaryQuadraticModel, CompiledBQM],
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveResult:
        """Minimize ``bqm``; deterministic for a fixed seed.

        ``bqm`` is a dict model (compiled once here) or a
        :class:`~repro.qubo.compiled.CompiledBQM`; both give the same
        result.  ``time_budget`` (seconds) makes the run cooperative:
        the budget is checked between restarts and between
        decomposition rounds, and the best incumbent found so far is
        returned once it is spent.  The first restart's first round
        always runs, so a valid sample comes back even under a zero
        budget.
        """
        model = as_compiled(bqm)
        if model.num_variables == 0:
            return SolveResult(sample={}, energy=model.offset, solver=self.name)
        deadline = budget_deadline(time_budget)
        fleet = self.fleet
        root = self.seed if seed is None else seed
        if fleet is None:
            rng = np.random.default_rng(root)
            capacity = self.sub_size
            fleet_info = {}
        else:
            # orchestration randomness flows from harness-derived seeds,
            # never from dispatch timing: invariant in the fleet size
            root = 0 if root is None else int(root)
            rng = np.random.default_rng(
                derive_seed(root, _FLEET_SEED_SCOPE, {"stage": "orchestrator"})
            )
            capacity = min(self.sub_size, fleet.min_capacity())
            fleet_info = {"fleet_size": fleet.size}

        if model.num_variables <= capacity:
            if fleet is None:
                state, energy = self._solve_block(model, int(rng.integers(2**31)))
                sample = model.to_sample(state)
            else:
                whole = bqm if isinstance(bqm, BinaryQuadraticModel) else model.to_bqm()
                ((sample, energy),) = fleet.dispatch(
                    [whole], root, num_reads=self.sub_reads
                )
            return SolveResult(
                sample=sample, energy=energy, solver=self.name,
                info={"rounds": 0, "subproblems": 1, "decomposed": False, **fleet_info},
            )

        components = strong_component_indices(model)
        weights = component_weight_indices(model, components)
        caches = _BlockCaches()
        best_state: Optional[np.ndarray] = None
        best_energy = float("inf")
        total_rounds = 0
        total_subproblems = 0
        for restart in range(self.restarts):
            if restart > 0 and budget_spent(deadline):
                break
            if restart == 0 or restart % 2 == 0:
                state = self._initial_state(model, rng)
            else:
                state = self._perturb(model, best_state, rng)
            state, energy, rounds, subproblems = self._refine(
                model, state, components, weights, rng, caches, capacity,
                deadline, root, restart,
            )
            total_rounds += rounds
            total_subproblems += subproblems
            if energy < best_energy - 1e-9:
                best_state, best_energy = state, energy

        return SolveResult(
            sample=model.to_sample(best_state),
            energy=float(best_energy),
            solver=self.name,
            info={
                "rounds": total_rounds,
                "subproblems": total_subproblems,
                "restarts": self.restarts,
                "components": len(components),
                "decomposed": True,
                **fleet_info,
                "block_cache_hits": caches.hits,
                "block_cache_misses": caches.misses,
            },
        )

    # ------------------------------------------------------------------
    def _refine(
        self,
        model: CompiledBQM,
        state: np.ndarray,
        components: List[List[int]],
        weights: Dict[tuple, float],
        rng: np.random.Generator,
        caches: "_BlockCaches",
        capacity: int,
        deadline: Optional[float],
        root: Optional[int],
        restart: int,
    ) -> tuple:
        """Decomposition rounds until ``stall_rounds`` rounds stop paying.

        The first round chases the incumbent's descent directions
        (energy-impact blocks); every later round re-partitions by
        strong coupling with a freshly shuffled component order, so
        repeated rounds try different block compositions instead of
        re-proving the same local optimum.  A round's blocks are solved
        by :meth:`_sequential_round`, or by :meth:`_fleet_round` in
        fleet mode; its candidate is accepted when it lowers the energy.
        """
        if self.fleet is not None:
            restart_seed = derive_seed(root, _FLEET_SEED_SCOPE, {"restart": restart})
        energy = state_energy(model, state)
        rounds = 0
        subproblems = 0
        stall = 0
        while rounds < self.max_rounds and stall < self.stall_rounds:
            if rounds > 0 and budget_spent(deadline):
                break
            rounds += 1
            if rounds == 1:
                blocks = energy_impact_indices(model, state, capacity)
            else:
                order = [int(i) for i in rng.permutation(len(components))]
                blocks = pack_components(components, weights, order, capacity)
            subproblems += len(blocks)
            if self.fleet is None:
                candidate, candidate_energy = self._sequential_round(
                    model, blocks, state, energy, rng, caches
                )
            else:
                candidate, candidate_energy = self._fleet_round(
                    model, blocks, state, root, caches,
                    seed=derive_seed(restart_seed, _FLEET_SEED_SCOPE, {"round": rounds}),
                )
            if candidate_energy < energy - 1e-9:
                state, energy = candidate, candidate_energy
                stall = 0
            else:
                stall += 1
        return state, energy, rounds, subproblems

    def _sequential_round(
        self,
        model: CompiledBQM,
        blocks: List[List[int]],
        state: np.ndarray,
        energy: float,
        rng: np.random.Generator,
        caches: "_BlockCaches",
    ) -> tuple:
        """Solve blocks one by one, each clamped to the latest incumbent."""
        for block in blocks:
            sub = model.clamp(block, state)
            sub_state, sub_energy = self._solve_block(
                sub, int(rng.integers(2**31)), caches=caches
            )
            if sub_energy < energy - 1e-9:
                state = state.copy()
                state[_block_positions(block)] = sub_state
                energy = sub_energy
        return state, energy

    def _fleet_round(
        self,
        model: CompiledBQM,
        blocks: List[List[int]],
        state: np.ndarray,
        root: int,
        caches: "_BlockCaches",
        seed: int,
    ) -> tuple:
        """Concurrent shard dispatch against one incumbent, then a merge.

        Every block is clamped against the *same* incumbent, so the
        shards are independent and can anneal concurrently.  The price
        is paid at the merge: shard-local optimality can break on the
        frontier, so the candidate is the better of (a) the naive merge
        after boundary reconciliation and (b) the best single shard
        applied alone (whose clamped energy *is* its full-model energy).
        """
        subs = [model.clamp(block, state) for block in blocks]
        results = self.fleet.dispatch(
            [sub.to_bqm() for sub in subs], root, num_reads=self.sub_reads
        )

        naive = state.copy()
        best_single: Optional[tuple] = None
        best_single_energy = float("inf")
        for block, sub, (shard_sample, shard_energy) in zip(blocks, subs, results):
            shard = (_block_positions(block), sub.state_vector(shard_sample))
            naive[shard[0]] = shard[1]
            if shard_energy < best_single_energy:
                best_single, best_single_energy = shard, shard_energy

        merged, merged_energy = reconcile_states(
            model, naive, frontier_indices(model, blocks),
            solve_block=lambda sub, s: self._solve_block(sub, s, caches=caches),
            seed=seed,
        )
        if best_single is not None and best_single_energy < merged_energy:
            candidate = state.copy()
            candidate[best_single[0]] = best_single[1]
            return candidate, best_single_energy
        return merged, merged_energy

    def _perturb(
        self,
        model: CompiledBQM,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Re-randomize a seeded fraction of the incumbent's variables."""
        lo, hi = model.vartype.values
        n = model.num_variables
        count = max(1, int(round(self.perturb_fraction * n)))
        chosen = rng.choice(n, size=count, replace=False)
        perturbed = state.copy()
        for i in chosen:
            perturbed[int(i)] = int(rng.choice((lo, hi)))
        return descend(model, perturbed)

    # ------------------------------------------------------------------
    def _solve_block(
        self,
        sub: CompiledBQM,
        seed: int,
        caches: Optional["_BlockCaches"] = None,
    ) -> tuple:
        """``(state, energy)`` of a block: exact enumeration when it fits,
        subsolver otherwise.

        With ``caches`` (one :class:`_BlockCaches` per decomposed
        ``solve``), content-identical subproblems — same blocks
        re-clamped against an unchanged boundary in later
        rounds/restarts — replay the memoized exact optimum or reuse
        the first instance's derived arrays.  The caller draws the seed
        *before* calling, so caching never shifts the RNG stream.
        Returned states are shared with the cache: read, never write.
        """
        if sub.num_variables <= self.exact_limit:
            if caches is None:
                return _exact_minimum(sub)
            return caches.lookup(caches.exact, sub, _exact_minimum)
        if caches is not None:
            sub = caches.lookup(caches.compiled, sub, lambda first: first)
        best = self.subsolver.sample(sub, num_reads=self.sub_reads, seed=seed).first
        return sub.state_vector(best.sample), float(best.energy)

    def _initial_state(self, model: CompiledBQM, rng: np.random.Generator) -> np.ndarray:
        """Incumbent from a full-model subsolver run (qbsolv-style).

        The classical local-search engine handles arbitrary sizes, so
        the decomposition loop starts from its best read (snapped into
        an exact single-flip minimum) and refines with exact sub-solves
        rather than climbing out of a random assignment.
        """
        sample_set = self.subsolver.sample(
            model, num_reads=self.sub_reads, seed=int(rng.integers(2**31))
        )
        return descend(model, model.state_vector(sample_set.first.sample))


def _exact_minimum(sub: CompiledBQM) -> tuple:
    result = brute_force_minimum(sub)
    return sub.state_vector(result.sample), float(result.energy)
