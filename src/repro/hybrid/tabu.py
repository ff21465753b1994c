"""Tabu-search sampler for binary quadratic models.

The classical local-search engine of the hybrid decomposing solver —
an analogue of Ocean's ``tabu.TabuSampler`` ([Palubeckis 2004] style
single-flip tabu search).  Unlike pure descent, tabu search always
moves to the best admissible neighbour, *even uphill*, while recently
flipped variables stay tabu for ``tenure`` iterations; an aspiration
criterion admits tabu moves that would beat the best energy seen.
This lets the search walk out of the local minima that trap greedy
descent and simulated annealing at low temperature.

Everything runs in the spin domain (flips are sign changes and the
energy delta of flipping :math:`s_i` is :math:`-2 s_i f_i` with local
field :math:`f_i = h_i + \\sum_j J_{ij} s_j`), mirroring
:mod:`repro.annealing.simulated_annealing`.

The kernel is per read, scalar and incremental.  Each read is its own
Python loop over float lists built from the compiled model
(:mod:`repro.qubo.compiled`): a flip touches only the flipped
variable's neighbours, and the best move comes from C-level ``min``
and ``list.index`` scans with the lowest-index tie-break.  The served
calls are small (the hybrid stage runs 2 reads over at most 49
variables on replay traffic), where per-iteration numpy calls over a
``(num_reads, n)`` batch cost more than the arithmetic they do.  The
scans are O(n) per iteration and each read pays for its own, so the
advantage shrinks as models and read counts grow.  Against the batched
numpy kernel kept as the reference in ``tests/test_hybrid.py``, one
``sample`` call is 2.4–4.5x faster at 2 reads and up to 49 variables,
1.7–2.9x at 10 reads; at 256 sparse variables it is 1.8–2.0x faster
at 2 reads and 1.0–1.3x at 10, and at 512 it is 1.2–1.5x faster at 2
reads but 1.1–1.3x slower at 10 (``BENCH_kernels.json``, ``tabu``
section).
Every value is formed with the same float expressions as the batched
kernel, so results stay bit-identical to it
(``TestTabuKernelBitIdentity``) and to the seed implementation
(``tests/test_golden_seed_compat.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.annealing.sampleset import SampleSet
from repro.qubo.bqm import BinaryQuadraticModel, Vartype
from repro.qubo.compiled import CompiledBQM, compile_bqm


class TabuSampler:
    """Single-flip tabu search over the Ising form of a BQM.

    Parameters
    ----------
    tenure:
        Iterations a flipped variable stays tabu.  Defaults to
        ``min(20, n // 4 + 1)`` per model (Ocean's heuristic).
    max_iter:
        Hard iteration cap per read (default ``50 * n``, at least 500).
    stall_limit:
        Stop a read after this many iterations without improving its
        best energy (default ``4 * n``, at least 100).
    seed:
        Default RNG seed; ``sample(..., seed=...)`` overrides per call.
    """

    def __init__(
        self,
        tenure: Optional[int] = None,
        max_iter: Optional[int] = None,
        stall_limit: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        if tenure is not None and tenure < 1:
            raise SolverError("tenure must be positive")
        self.tenure = tenure
        self.max_iter = max_iter
        self.stall_limit = stall_limit
        self.seed = seed

    # ------------------------------------------------------------------
    def sample(
        self,
        bqm: BinaryQuadraticModel,
        num_reads: int = 10,
        seed: Optional[int] = None,
        initial_states: Optional[Sequence[Mapping[Hashable, int]]] = None,
        compiled: Optional[CompiledBQM] = None,
    ) -> SampleSet:
        """Run ``num_reads`` independent tabu searches, one after another.

        ``initial_states`` warm-starts the first reads (in the vartype
        of ``bqm``); remaining reads start from random assignments.
        ``compiled`` reuses a pre-compiled form of ``bqm``.  Returns a
        :class:`SampleSet` holding each read's best sample, in the
        vartype of the input model, duplicates merged into
        ``num_occurrences``.
        """
        if num_reads < 1:
            raise SolverError("num_reads must be positive")
        if bqm.num_variables == 0:
            return SampleSet.from_samples([{}], [bqm.offset], vartype=bqm.vartype)

        cbqm = compiled if compiled is not None else compile_bqm(bqm)
        spin = cbqm.spin
        n = spin.num_variables

        rng = np.random.default_rng(self.seed if seed is None else seed)
        tenure = self.tenure if self.tenure is not None else min(20, n // 4 + 1)
        max_iter = self.max_iter if self.max_iter is not None else max(500, 50 * n)
        stall_limit = (
            self.stall_limit if self.stall_limit is not None else max(100, 4 * n)
        )

        starts = self._initial_spins(
            bqm.vartype, spin.index, n, num_reads, initial_states, rng
        )

        best_spins, best_energies = self._search(
            starts, spin, tenure, max_iter, stall_limit
        )

        if bqm.vartype is Vartype.BINARY:
            states = (best_spins + 1.0) / 2.0  # exact: ±1 → {0, 1}
            return SampleSet.from_samples(
                cbqm.states_to_samples(states),
                cbqm.energies_compat(states),
                vartype=Vartype.BINARY,
                aggregate=True,
            )
        return SampleSet.from_samples(
            spin.states_to_samples(best_spins),
            best_energies,
            vartype=Vartype.SPIN,
            aggregate=True,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _initial_spins(
        vartype: Vartype,
        index: Dict[Hashable, int],
        n: int,
        num_reads: int,
        initial_states: Optional[Sequence[Mapping[Hashable, int]]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-read start vectors: warm starts first, then random."""
        starts = rng.choice((-1.0, 1.0), size=(num_reads, n))
        for read, state in enumerate(initial_states or ()):
            if read >= num_reads:
                break
            for v, value in state.items():
                if v not in index:
                    raise SolverError(f"initial state has unknown variable {v!r}")
                if vartype is Vartype.BINARY:
                    value = 2 * int(value) - 1
                starts[read, index[v]] = float(value)
        return starts

    @staticmethod
    def _search(
        starts: np.ndarray,
        spin: CompiledBQM,
        tenure: int,
        max_iter: int,
        stall_limit: int,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """One scalar, incremental tabu run per read; returns (best spins,
        best energies).

        A read keeps its local fields ``f`` and ``scale[i] = -2.0*s[i]``
        (exactly ±2.0) as Python float lists, and each flip delta
        ``scale[i]*f[i]`` either in ``free`` (non-tabu variables; tabu
        slots hold ``inf``) or in ``held`` (tabu variables).  Flipping
        ``k`` negates its delta and updates ``f`` and the delta of
        ``k``'s neighbours only, with the float expressions of a full
        recomputation, so every value is bit-identical to it.

        The tabu set is the last ``tenure`` moves.  The move is the
        lowest-index minimum delta over admissible variables.  Float
        addition is monotone, so if the global minimum ``m`` passes the
        aspiration test (``e + m`` beats the incumbent) every variable
        at ``m`` is admissible and the move is the first of them;
        otherwise no tabu variable aspires and the move is the first
        minimum of ``free``, or, when everything is tabu, the first
        global minimum.  Biases are assumed finite.
        """
        num_reads, n = starts.shape
        neighbors = spin.neighbor_index
        couplings = spin.neighbor_bias
        adjacency = [
            tuple(zip(neighbors[i].tolist(), couplings[i].tolist())) for i in range(n)
        ]

        # per-(read, variable) 1-D dots replicate the sequential field
        # initialization (a gemv would round differently in rare cases)
        fields = np.broadcast_to(spin.linear, (num_reads, n)).copy()
        for r in range(num_reads):
            row = starts[r]
            frow = fields[r]
            for i in range(n):
                if len(neighbors[i]):
                    frow[i] += row[neighbors[i]] @ couplings[i]
        energies = spin.energies_compat(starts)

        best_spins = np.empty_like(starts)
        best_energies = np.empty(num_reads)
        inf = float("inf")
        for r in range(num_reads):
            scale = (-2.0 * starts[r]).tolist()
            f = fields[r].tolist()
            free = [si * fi for si, fi in zip(scale, f)]
            held: Dict[int, float] = {}
            tabu: "deque[int]" = deque(maxlen=tenure)
            e = best = float(energies[r])
            bar = best - 1e-12
            best_scale = scale[:]
            stall = 0
            for _ in range(max_iter):
                mf = min(free)
                mt = min(held.values()) if held else inf
                m = mf if mf <= mt else mt
                if e + m < bar:  # aspiration admits every variable at m
                    k = free.index(m) if mf == m else n
                    if mt == m:
                        k = min(k, min(j for j, v in held.items() if v == m))
                elif mf != inf:
                    k = free.index(mf)
                else:  # every variable is tabu: the first global minimum
                    k = min(j for j, v in held.items() if v == mt)

                if k in held:
                    delta = held[k]
                else:
                    delta = free[k]
                    free[k] = inf
                e += delta
                held[k] = -delta
                shift = scale[k]  # 2.0 * (flipped s[k])
                scale[k] = -shift
                for j, c in adjacency[k]:
                    fj = f[j] + shift * c
                    f[j] = fj
                    if j in held:
                        held[j] = scale[j] * fj
                    else:
                        free[j] = scale[j] * fj
                expired = tabu[0] if len(tabu) == tenure else None
                tabu.append(k)
                if expired is not None and expired not in tabu:
                    free[expired] = held.pop(expired)

                if e < bar:
                    best = e
                    bar = best - 1e-12
                    best_scale = scale[:]
                    stall = 0
                else:
                    stall += 1
                    if stall >= stall_limit:
                        break
            best_spins[r] = best_scale
            best_energies[r] = best
        best_spins /= -2.0
        return best_spins, best_energies
