"""Simulated-annealing sampler for binary quadratic models.

The classical solver standing in for ``dwave-neal`` (paper Sec. 6.2.1):
Metropolis sweeps over an Ising spin glass under a geometric inverse-
temperature schedule.  All reads are annealed *in parallel* as numpy
vectors, so one sweep is ``n`` vectorised updates rather than
``n * num_reads`` scalar ones.

The sweep kernel runs over the compiled array form of the model
(:mod:`repro.qubo.compiled`): pass a compiled model to :meth:`sample`
to skip the per-call compilation entirely (the service's compilation
cache does), and the final per-read energies are evaluated as one
vectorized pass instead of a dict walk per read.  RNG draw order and
the per-term float accumulation order are preserved exactly, so
results are bit-identical to the dict-backed seed implementation —
``tests/test_golden_seed_compat.py`` pins that.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import SolverError
from repro.annealing.sampleset import SampleSet
from repro.qubo.bqm import BinaryQuadraticModel, Vartype
from repro.qubo.compiled import CompiledBQM, as_compiled


class SimulatedAnnealingSampler:
    """Metropolis simulated annealing over the Ising form of a BQM."""

    def __init__(
        self,
        num_sweeps: int = 200,
        beta_range: Optional[Tuple[float, float]] = None,
        seed: Optional[int] = None,
        greedy_postprocess: bool = True,
    ) -> None:
        if num_sweeps < 1:
            raise SolverError("need at least one sweep")
        self.num_sweeps = num_sweeps
        self.beta_range = beta_range
        self.seed = seed
        #: run zero-temperature descent sweeps after annealing until no
        #: single flip improves — snaps reads into exact local minima,
        #: which matters for constraint-heavy QUBOs whose valid states
        #: are isolated (the join-ordering encoding in particular)
        self.greedy_postprocess = greedy_postprocess

    # ------------------------------------------------------------------
    def sample(
        self,
        bqm: Union[BinaryQuadraticModel, CompiledBQM],
        num_reads: int = 10,
        seed: Optional[int] = None,
    ) -> SampleSet:
        """Anneal ``num_reads`` independent replicas.

        ``bqm`` may itself be a :class:`CompiledBQM`; a dict model is
        compiled on the fly.  Returns a :class:`SampleSet` in the
        vartype of the input model, with duplicate reads merged into
        ``num_occurrences``.
        """
        if num_reads < 1:
            raise SolverError("num_reads must be positive")
        if bqm.num_variables == 0:
            return SampleSet.from_samples([{}], [bqm.offset], vartype=bqm.vartype)

        cbqm = as_compiled(bqm)
        spin = cbqm.spin
        n = spin.num_variables
        h = spin.linear
        neighbors = spin.neighbor_index
        couplings = spin.neighbor_bias

        rng = np.random.default_rng(self.seed if seed is None else seed)
        beta_lo, beta_hi = self._beta_schedule_bounds(spin)
        betas = np.geomspace(max(beta_lo, 1e-9), beta_hi, self.num_sweeps)

        # spins: (num_reads, n) in {-1, +1}
        spins = rng.choice((-1.0, 1.0), size=(num_reads, n))
        for beta in betas:
            for i in rng.permutation(n):
                if len(neighbors[i]):
                    field = h[i] + spins[:, neighbors[i]] @ couplings[i]
                else:
                    field = np.full(num_reads, h[i])
                # flipping s_i changes energy by ΔE = -2 * (-s_i) * field
                delta = 2.0 * spins[:, i] * field * -1.0
                # accept if ΔE < 0 or with Metropolis probability
                accept = (delta < 0) | (
                    rng.random(num_reads) < np.exp(-beta * np.clip(delta, 0, 700))
                )
                spins[accept, i] *= -1.0

        if self.greedy_postprocess:
            for _ in range(4 * n):
                improved = False
                for i in rng.permutation(n):
                    if len(neighbors[i]):
                        field = h[i] + spins[:, neighbors[i]] @ couplings[i]
                    else:
                        field = np.full(num_reads, h[i])
                    delta = -2.0 * spins[:, i] * field
                    accept = delta < -1e-12
                    if accept.any():
                        spins[accept, i] *= -1.0
                        improved = True
                if not improved:
                    break

        if bqm.vartype is Vartype.BINARY:
            states = (spins + 1.0) / 2.0  # exact: ±1 → {0, 1}
            return SampleSet.from_samples(
                cbqm.states_to_samples(states),
                cbqm.energies_compat(states),
                vartype=Vartype.BINARY,
                aggregate=True,
            )
        return SampleSet.from_samples(
            spin.states_to_samples(spins),
            spin.energies_compat(spins),
            vartype=Vartype.SPIN,
            aggregate=True,
        )

    # ------------------------------------------------------------------
    def _beta_schedule_bounds(self, spin: CompiledBQM) -> Tuple[float, float]:
        """Default β range from the bias magnitudes (neal's heuristic).

        The hot temperature makes the largest single-spin flip likely;
        the cold temperature makes the smallest flip unlikely.  The
        per-variable magnitude totals are precomputed at compile time
        (:attr:`CompiledBQM.abs_totals`) in the accumulation order the
        dict implementation used.
        """
        if self.beta_range is not None:
            return self.beta_range
        totals = spin.abs_totals
        magnitudes = totals[totals > 0]
        if not magnitudes.size:
            return (0.1, 1.0)
        hot = 2.0 * float(magnitudes.max())
        cold = float(magnitudes.min())
        return (np.log(2.0) / hot, np.log(100.0) / max(cold, 1e-9))
