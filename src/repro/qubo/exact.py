"""Exact (brute-force) minimization of binary quadratic models.

The paper validates its QUBO encodings on instances small enough that the
ground state can be enumerated classically; this module provides that
reference solver.  A vectorised numpy path enumerates all :math:`2^n`
assignments at once and is practical up to roughly 22 variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Hashable, List, Tuple, Union

import numpy as np

from repro.exceptions import SolverError
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.compiled import CompiledBQM

_MAX_EXACT_VARIABLES = 26
#: enumerations up to this size reuse one cached assignment matrix
_CACHED_BITS = 12
_ENERGY_SUBSCRIPTS = "ij,jk,ik->i"


@lru_cache(maxsize=None)
def _contraction_path(rows: int, n: int) -> tuple:
    """``np.einsum_path``'s choice for a ``(rows, n)`` chunk, planned once
    per shape instead of on every call (the plan depends only on shapes;
    zero-stride operands keep planning allocation-free).  At most one
    entry per ``n`` up to the enumeration limit, since chunks are
    ``min(2**n, 2**18)`` rows."""
    bits = np.broadcast_to(0.0, (rows, n))
    q = np.broadcast_to(0.0, (n, n))
    return tuple(np.einsum_path(_ENERGY_SUBSCRIPTS, bits, q, bits, optimize=True)[0])


@lru_cache(maxsize=None)
def _all_bits(n: int) -> np.ndarray:
    """Every assignment of ``n`` variables as float rows (row ``i`` holds
    the bits of ``i``), built once per ``n`` up to :data:`_CACHED_BITS`."""
    indices = np.arange(1 << n, dtype=np.uint32)
    bits = ((indices[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(
        np.float64
    )
    bits.flags.writeable = False
    return bits


def _assignment_energies(bits: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``x^T Q x`` for every row ``x`` of ``bits``, bit-identical to
    ``np.einsum(..., optimize=True)``."""
    path = _contraction_path(*bits.shape)
    return np.einsum(_ENERGY_SUBSCRIPTS, bits, q, bits, optimize=path)


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a brute-force minimization."""

    sample: Dict[Hashable, int]
    energy: float
    #: all optimal samples (ties included), each with the minimum energy
    all_optima: Tuple[Dict[Hashable, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.all_optima:
            object.__setattr__(self, "all_optima", (dict(self.sample),))


def brute_force_minimum(bqm: Union[BinaryQuadraticModel, CompiledBQM]) -> ExactResult:
    """Enumerate every assignment and return the ground state.

    ``bqm`` may be a dict model or a :class:`CompiledBQM`; both build
    the same ``Q`` (``to_numpy_matrix``), so the optimum and the list of
    optima are identical.  Spin models are enumerated over their binary
    form; only the reported sample values change domain.

    Raises
    ------
    SolverError
        If the model has more than 26 variables (the dense enumeration
        would need more than ~0.5 GiB).
    """
    n = bqm.num_variables
    if n == 0:
        return ExactResult(sample={}, energy=bqm.offset)
    if n > _MAX_EXACT_VARIABLES:
        raise SolverError(
            f"brute force over {n} variables is infeasible "
            f"(limit {_MAX_EXACT_VARIABLES})"
        )
    q, offset, order = bqm.to_numpy_matrix()
    count = 1 << n
    # Enumerate in chunks to bound memory (a 2^24 x 24 float matrix
    # would be several GiB at once).
    chunk = min(count, 1 << 18)
    shifts = np.arange(n, dtype=np.uint32)[None, :]
    best = np.inf
    optimal_indices: List[int] = []
    for start in range(0, count, chunk):
        indices = np.arange(start, min(start + chunk, count), dtype=np.uint32)
        if n <= _CACHED_BITS:
            bits = _all_bits(n)
        else:
            bits = ((indices[:, None] >> shifts) & 1).astype(np.float64)
        energies = _assignment_energies(bits, q) + offset
        chunk_best = float(energies.min())
        if chunk_best < best - 1e-9:
            best = chunk_best
            optimal_indices = []
        if chunk_best <= best + 1e-9:
            # np.isclose(energies, best, rtol=0.0, atol=1e-9), minus its
            # per-call overhead on the hybrid solver's many small blocks
            close = (np.abs(energies - best) <= 1e-9) | (energies == best)
            rows = np.flatnonzero(close)
            optimal_indices.extend(int(indices[r]) for r in rows[:64])
    optimal_indices = optimal_indices[:64]
    lo, hi = bqm.vartype.values

    def index_to_sample(value: int) -> Dict[Hashable, int]:
        return {v: (hi if (value >> i) & 1 else lo) for i, v in enumerate(order)}

    optima: List[Dict[Hashable, int]] = [index_to_sample(v) for v in optimal_indices]
    return ExactResult(sample=optima[0], energy=best, all_optima=tuple(optima))


class ExactQuboSolver:
    """Object-style wrapper around :func:`brute_force_minimum`.

    Matches the ``sample``-style calling convention of the annealing
    samplers so tests can swap solvers freely.
    """

    def minimize(self, bqm: BinaryQuadraticModel) -> ExactResult:
        """Return the exact ground state of ``bqm``."""
        return brute_force_minimum(bqm)

    def sample(self, bqm: BinaryQuadraticModel, **_: object):
        """Sampler-compatible entry point returning a 1-row sample set."""
        from repro.annealing.sampleset import SampleSet

        result = brute_force_minimum(bqm)
        return SampleSet.from_samples(
            [result.sample], [result.energy], vartype=bqm.vartype
        )
