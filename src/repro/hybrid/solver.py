"""The qbsolv-style decomposing hybrid solver.

Large QUBOs exceed both exact enumeration (~26 variables) and the
statevector simulator (~32 qubits), and near-term annealers hold only
hardware-sized subproblems — the bound the paper's evaluation keeps
running into.  The hybrid literature it spawned ([Booth, Reinhardt &
Roy 2017]'s qbsolv, Fankhauser et al.'s hybrid MQO) decomposes: solve
bounded-size subproblems with whatever solver fits them, clamp the
boundary to the incumbent, and iterate until no round improves.

:class:`DecomposingSolver` implements that loop over any
:class:`~repro.qubo.bqm.BinaryQuadraticModel`:

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
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.exceptions import SolverError
from repro.harness import derive_seed
from repro.hybrid.decomposer import (
    clamp_subproblem,
    component_weights,
    flip_energy_gains,
    pack_components,
    select_by_energy_impact,
    strong_components,
)
from repro.hybrid.reconcile import frontier_variables, reconcile_boundary
from repro.hybrid.tabu import TabuSampler
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.compiled import compile_bqm
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


@dataclass
class _BlockCaches:
    """Per-``solve`` reuse of work on content-identical subproblems.

    ``exact`` memoizes the brute-force optimum of small blocks;
    ``compiled`` keeps the array-compiled form of subsolver-sized
    blocks.  Keyed by the clamped subproblem's full content
    (:func:`_subproblem_key`), so a hit is exactly a re-encounter of
    the same block with the same boundary assignment.
    """

    exact: Dict[tuple, tuple] = field(default_factory=dict)
    compiled: Dict[tuple, object] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, table: Dict[tuple, object], sub: BinaryQuadraticModel, build):
        """``table``'s entry for ``sub``, made by ``build(sub)`` on a miss."""
        key = _subproblem_key(sub)
        value = table.get(key)
        if value is None:
            self.misses += 1
            value = table[key] = build(sub)
        else:
            self.hits += 1
        return value


def _subproblem_key(sub: BinaryQuadraticModel) -> tuple:
    """Content key of a clamped subproblem (exact float equality).

    The clamped sub-BQM is fully determined by its block variables and
    the incumbent values of their out-of-block neighbours, all of which
    land in its linear/quadratic coefficients and offset — hashing the
    content is therefore equivalent to hashing (block, boundary).
    """
    linear = tuple(
        sorted((str(v), bias) for v, bias in sub.linear.items())
    )
    quadratic = tuple(
        sorted(
            (*sorted((str(u), str(v))), bias)
            for u, v, bias in sub.interactions()
        )
    )
    return (sub.vartype.name, sub.offset, linear, quadratic)


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
        An Ocean-style sampler with ``sample(bqm, num_reads=…, seed=…,
        compiled=…)`` — :class:`~repro.hybrid.tabu.TabuSampler`
        (default) or
        :class:`~repro.annealing.simulated_annealing.SimulatedAnnealingSampler`.
        ``compiled`` is always passed: ``None``, or the
        :class:`~repro.qubo.compiled.CompiledBQM` of the model given.
        A decomposed solve compiles each content-identical subproblem
        once (and enumerates each exact block once), reporting
        ``block_cache_hits``/``block_cache_misses`` in ``info``.
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
        boundary-reconciled before acceptance.
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
        bqm: BinaryQuadraticModel,
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
        compiled=None,
    ) -> SolveResult:
        """Minimize ``bqm``; deterministic for a fixed seed.

        ``time_budget`` (seconds) makes the run cooperative: the budget
        is checked between restarts and between decomposition rounds,
        and the best incumbent found so far is returned once it is
        spent.  The first restart's first round always runs, so a valid
        sample comes back even under a zero budget.

        ``compiled`` (a :class:`~repro.qubo.compiled.CompiledBQM` of
        this exact model) feeds the subsolver's full-model calls —
        initial incumbents and, without a fleet, models that fit in one
        block — without recompiling; clamped subproblems are distinct
        models, compiled once per content in the per-solve block cache.
        """
        if bqm.num_variables == 0:
            return SolveResult(sample={}, energy=bqm.offset, solver=self.name)
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

        if bqm.num_variables <= capacity:
            if fleet is None:
                sample, energy = self._solve_block(
                    bqm, int(rng.integers(2**31)), compiled=compiled
                )
            else:
                ((sample, energy),) = fleet.dispatch(
                    [bqm], root, num_reads=self.sub_reads
                )
            return SolveResult(
                sample=sample, energy=energy, solver=self.name,
                info={"rounds": 0, "subproblems": 1, "decomposed": False, **fleet_info},
            )

        components = strong_components(bqm)
        weights = component_weights(bqm, components)
        caches = _BlockCaches()
        best_sample: Dict[Hashable, int] = {}
        best_energy = float("inf")
        total_rounds = 0
        total_subproblems = 0
        for restart in range(self.restarts):
            if restart > 0 and budget_spent(deadline):
                break
            if restart == 0 or restart % 2 == 0:
                sample = self._initial_sample(bqm, rng, compiled=compiled)
            else:
                sample = self._perturb(bqm, best_sample, rng)
            sample, energy, rounds, subproblems = self._refine(
                bqm, sample, components, weights, rng, caches, capacity,
                deadline, root, restart,
            )
            total_rounds += rounds
            total_subproblems += subproblems
            if energy < best_energy - 1e-9:
                best_sample, best_energy = sample, energy

        return SolveResult(
            sample=dict(best_sample),
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
        bqm: BinaryQuadraticModel,
        sample: Dict[Hashable, int],
        components: List[List[Hashable]],
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
        energy = bqm.energy(sample)
        rounds = 0
        subproblems = 0
        stall = 0
        while rounds < self.max_rounds and stall < self.stall_rounds:
            if rounds > 0 and budget_spent(deadline):
                break
            rounds += 1
            if rounds == 1:
                blocks = select_by_energy_impact(bqm, sample, capacity)
            else:
                order = [int(i) for i in rng.permutation(len(components))]
                blocks = pack_components(components, weights, order, capacity)
            subproblems += len(blocks)
            if self.fleet is None:
                candidate, candidate_energy = self._sequential_round(
                    bqm, blocks, sample, energy, rng, caches
                )
            else:
                candidate, candidate_energy = self._fleet_round(
                    bqm, blocks, sample, root, caches,
                    seed=derive_seed(restart_seed, _FLEET_SEED_SCOPE, {"round": rounds}),
                )
            if candidate_energy < energy - 1e-9:
                sample, energy = candidate, candidate_energy
                stall = 0
            else:
                stall += 1
        return sample, energy, rounds, subproblems

    def _sequential_round(
        self,
        bqm: BinaryQuadraticModel,
        blocks: List[List[Hashable]],
        sample: Dict[Hashable, int],
        energy: float,
        rng: np.random.Generator,
        caches: "_BlockCaches",
    ) -> tuple:
        """Solve blocks one by one, each clamped to the latest incumbent."""
        for block in blocks:
            sub = clamp_subproblem(bqm, block, sample)
            sub_sample, sub_energy = self._solve_block(
                sub, int(rng.integers(2**31)), caches=caches
            )
            if sub_energy < energy - 1e-9:
                sample = dict(sample)
                sample.update(sub_sample)
                energy = sub_energy
        return sample, energy

    def _fleet_round(
        self,
        bqm: BinaryQuadraticModel,
        blocks: List[List[Hashable]],
        sample: Dict[Hashable, int],
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
        subs = [clamp_subproblem(bqm, block, sample) for block in blocks]
        results = self.fleet.dispatch(subs, root, num_reads=self.sub_reads)

        naive = dict(sample)
        best_single: Optional[Dict[Hashable, int]] = None
        best_single_energy = float("inf")
        for shard_sample, shard_energy in results:
            naive.update(shard_sample)
            if shard_energy < best_single_energy:
                best_single, best_single_energy = shard_sample, shard_energy

        merged, merged_energy = reconcile_boundary(
            bqm, naive, frontier_variables(bqm, blocks),
            solve_block=lambda sub, s: self._solve_block(sub, s, caches=caches),
            seed=seed,
        )
        if best_single is not None and best_single_energy < merged_energy:
            candidate = dict(sample)
            candidate.update(best_single)
            return candidate, best_single_energy
        return merged, merged_energy

    def _perturb(
        self,
        bqm: BinaryQuadraticModel,
        sample: Dict[Hashable, int],
        rng: np.random.Generator,
    ) -> Dict[Hashable, int]:
        """Re-randomize a seeded fraction of the incumbent's variables."""
        lo, hi = bqm.vartype.values
        variables = list(bqm.variables)
        count = max(1, int(round(self.perturb_fraction * len(variables))))
        chosen = rng.choice(len(variables), size=count, replace=False)
        perturbed = dict(sample)
        for i in chosen:
            perturbed[variables[int(i)]] = int(rng.choice((lo, hi)))
        return greedy_descent(bqm, perturbed)

    # ------------------------------------------------------------------
    def _solve_block(
        self,
        sub: BinaryQuadraticModel,
        seed: int,
        compiled=None,
        caches: Optional["_BlockCaches"] = None,
    ) -> tuple:
        """Exact enumeration when the block fits, subsolver otherwise.

        With ``caches`` (one :class:`_BlockCaches` per decomposed
        ``solve``), content-identical subproblems — same blocks
        re-clamped against an unchanged boundary in later
        rounds/restarts — replay the memoized exact optimum or reuse the
        compiled array form instead of recompiling.  The caller draws
        the seed *before* calling, so caching never shifts the RNG
        stream.
        """
        if sub.num_variables <= self.exact_limit:
            if caches is None:
                return _exact_minimum(sub)
            sample, energy = caches.lookup(caches.exact, sub, _exact_minimum)
            return dict(sample), energy
        if caches is not None:
            compiled = caches.lookup(caches.compiled, sub, compile_bqm)
        best = self.subsolver.sample(
            sub, num_reads=self.sub_reads, seed=seed, compiled=compiled
        ).first
        return dict(best.sample), float(best.energy)

    def _initial_sample(
        self, bqm: BinaryQuadraticModel, rng: np.random.Generator, compiled=None
    ) -> Dict[Hashable, int]:
        """Incumbent from a full-model subsolver run (qbsolv-style).

        The classical local-search engine handles arbitrary sizes, so
        the decomposition loop starts from its best read (snapped into
        an exact single-flip minimum) and refines with exact sub-solves
        rather than climbing out of a random assignment.
        """
        sample_set = self.subsolver.sample(
            bqm, num_reads=self.sub_reads, seed=int(rng.integers(2**31)),
            compiled=compiled,
        )
        return greedy_descent(bqm, dict(sample_set.first.sample))


def _exact_minimum(sub: BinaryQuadraticModel) -> tuple:
    result = brute_force_minimum(sub)
    return dict(result.sample), float(result.energy)


def greedy_descent(
    bqm: BinaryQuadraticModel, sample: Dict[Hashable, int]
) -> Dict[Hashable, int]:
    """Flip single variables until no flip improves (deterministic).

    Repeatedly applies the single most-improving flip (ties broken on
    ``str(var)``), maintaining flip gains incrementally — one flip
    costs ``O(degree)``, not a full model walk.
    """
    sample = dict(sample)
    lo, hi = bqm.vartype.values
    adjacency: Dict[Hashable, List[tuple]] = {v: [] for v in bqm.variables}
    for u, v, bias in bqm.interactions():
        adjacency[u].append((v, bias))
        adjacency[v].append((u, bias))
    gains = flip_energy_gains(bqm, sample)
    order: List[Hashable] = sorted(bqm.variables, key=str)
    for _ in range(8 * max(1, bqm.num_variables)):
        best = None
        for v in order:
            if gains[v] < -1e-12 and (best is None or gains[v] < gains[best]):
                best = v
        if best is None:
            break
        old = sample[best]
        new = lo + hi - old
        sample[best] = new
        gains[best] = -gains[best]
        for u, bias in adjacency[best]:
            # gain(u) = (flip_u - x_u) * field_u; field_u shifts by
            # bias * (new - old) when its neighbour flips
            gains[u] += (lo + hi - 2 * sample[u]) * bias * (new - old)
    return sample
