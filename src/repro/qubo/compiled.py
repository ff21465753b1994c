"""Compile-once array-backed representation of a binary quadratic model.

The dict-of-dicts :class:`~repro.qubo.bqm.BinaryQuadraticModel` is the
construction API of every encoding in the repository, but it is also
what every solver used to iterate in its inner loop — a hash lookup and
a Python-level multiply per term, per read, per sweep.  This module
separates the two roles: models are still *built* as dict BQMs, then
:func:`compile_bqm` lowers them once into flat numpy arrays that the
solver kernels (:mod:`repro.annealing.simulated_annealing`,
:mod:`repro.hybrid.tabu`) and the service's compilation cache consume.

A :class:`CompiledBQM` holds

* an index-mapped linear-bias vector (``linear[i]`` is the bias of
  ``variables[i]``, insertion order preserved),
* the quadratic terms as parallel edge arrays ``(edge_u, edge_v,
  edge_bias)`` in the model's :meth:`interactions` emission order,
* per-variable neighbour/coupling arrays (a CSR-style adjacency) whose
  entry order replicates the order the dict samplers accumulated in,
  so vectorized local-field evaluations are **bit-identical** to the
  seed implementation,
* an optional dense symmetric coupling matrix for small or dense
  models, where one BLAS matmul beats gather loops, and
* for binary models, a pre-compiled spin companion (the domain the
  annealing kernels sweep in).

Two energy evaluators are exposed on purpose:

``energies(states)``
    The fast path — one vectorized pass over all rows at once.  Exact
    in exact arithmetic but free to reassociate floating-point sums,
    so it may differ from ``BinaryQuadraticModel.energy`` in the last
    ulp.  Use it for bulk scoring (benchmarks, verification sweeps,
    service-side ranking with tolerances).

``energies_compat(states)``
    Term-by-term in the exact accumulation order of
    :meth:`BinaryQuadraticModel.energy`, vectorized across rows only.
    Bit-identical to the dict implementation — this is what the
    samplers report, which is why the golden seed-compatibility
    fixtures survive the kernel rewrite unchanged.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError, VariableError
from repro.qubo.bqm import BinaryQuadraticModel, Vartype

__all__ = ["CompiledBQM", "compile_bqm"]

#: models at or under this variable count always get the dense matrix
DENSE_SIZE_THRESHOLD = 64
#: larger models get it too when the interaction density is above this
DENSE_DENSITY_THRESHOLD = 0.25


class CompiledBQM:
    """Array-backed form of one :class:`BinaryQuadraticModel`.

    Instances are immutable once built and safe to share across threads
    (the service's compilation cache hands one compiled model to every
    request for the same problem fingerprint).  Build with
    :func:`compile_bqm`, not the constructor.
    """

    __slots__ = (
        "vartype",
        "offset",
        "variables",
        "index",
        "linear",
        "edge_u",
        "edge_v",
        "edge_bias",
        "neighbor_index",
        "neighbor_bias",
        "abs_totals",
        "dense",
        "_spin",
    )

    def __init__(
        self,
        vartype: Vartype,
        offset: float,
        variables: Tuple[Hashable, ...],
        linear: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_bias: np.ndarray,
        dense: Optional[np.ndarray],
        spin: Optional["CompiledBQM"],
    ) -> None:
        self.vartype = vartype
        self.offset = float(offset)
        self.variables = variables
        self.index = {v: i for i, v in enumerate(variables)}
        self.linear = np.ascontiguousarray(linear, dtype=float)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_bias = edge_bias
        n = len(variables)

        # per-variable adjacency in the dict samplers' append order (both
        # endpoints of each edge, interactions() emission order): a stable
        # sort of the interleaved endpoints keeps that order per variable
        ends = np.column_stack((edge_u, edge_v)).ravel()
        by_end = np.argsort(ends, kind="stable")
        biases = np.repeat(edge_bias, 2)
        nbrs = np.column_stack((edge_v, edge_u)).ravel()[by_end]
        cpls = biases[by_end]
        bounds = [0, *np.cumsum(np.bincount(ends, minlength=n)).tolist()]
        spans = list(zip(bounds, bounds[1:]))
        self.neighbor_index = [nbrs[a:b] for a, b in spans]
        self.neighbor_bias = [cpls[a:b] for a, b in spans]

        # |linear| + Σ|bias| per variable; ufunc.at adds in index order,
        # the exact order the dict-based β-schedule heuristic used
        totals = np.abs(self.linear)
        np.add.at(totals, ends, np.abs(biases))
        self.abs_totals = totals

        self.dense = dense
        self._spin = spin

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_interactions(self) -> int:
        return int(self.edge_bias.size)

    @property
    def spin(self) -> "CompiledBQM":
        """The compiled spin-domain companion (``self`` for spin models)."""
        if self.vartype is Vartype.SPIN:
            return self
        if self._spin is None:
            raise ModelError(
                "model was compiled with with_spin=False; recompile with "
                "compile_bqm(bqm) to use the spin kernels"
            )
        return self._spin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledBQM({self.num_variables} variables, "
            f"{self.num_interactions} interactions, {self.vartype.name}, "
            f"dense={'yes' if self.dense is not None else 'no'})"
        )

    # ------------------------------------------------------------------
    # Sample/state conversions
    # ------------------------------------------------------------------
    def state_vector(self, sample: Mapping[Hashable, int]) -> np.ndarray:
        """One assignment dict → ``(n,)`` float vector in index order."""
        try:
            return np.fromiter(
                (sample[v] for v in self.variables),
                dtype=float,
                count=len(self.variables),
            )
        except KeyError as exc:
            raise VariableError(f"sample is missing variable {exc.args[0]!r}") from None

    def states_matrix(
        self, samples: Iterable[Mapping[Hashable, int]]
    ) -> np.ndarray:
        """Assignment dicts → ``(rows, n)`` float matrix."""
        rows = [self.state_vector(s) for s in samples]
        if not rows:
            return np.empty((0, len(self.variables)), dtype=float)
        return np.stack(rows)

    def states_to_samples(self, states: np.ndarray) -> List[Dict[Hashable, int]]:
        """``(rows, n)`` matrix → assignment dicts with int values."""
        ints = states.astype(np.int64)
        variables = self.variables
        return [
            {variables[i]: int(row[i]) for i in range(len(variables))} for row in ints
        ]

    # ------------------------------------------------------------------
    # Energy evaluation
    # ------------------------------------------------------------------
    def energies(self, states: np.ndarray) -> np.ndarray:
        """Vectorized energies of many assignments at once.

        ``states`` is ``(rows, n)`` (a single ``(n,)`` vector is
        promoted).  Fast path: free to reassociate sums, agrees with
        :meth:`BinaryQuadraticModel.energy` to float64 rounding.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        out = states @ self.linear
        out += self.offset
        if self.edge_bias.size:
            if self.dense is not None:
                # E_quad = ½ Σ_ij x_i D_ij x_j with D symmetric
                out += 0.5 * np.einsum("ri,ri->r", states, states @ self.dense)
            else:
                out += (states[:, self.edge_u] * states[:, self.edge_v]) @ self.edge_bias
        return out

    def energy(self, state: np.ndarray) -> float:
        """Fast-path energy of one state vector."""
        return float(self.energies(np.asarray(state, dtype=float))[0])

    def energies_compat(self, states: np.ndarray) -> np.ndarray:
        """Energies in the dict implementation's accumulation order.

        Every term (offset, then linear biases in variable order, then
        quadratic biases in interaction order) is formed with the same
        float operations as :meth:`BinaryQuadraticModel.energy`, and
        each row's terms are summed strictly left to right
        (``ufunc.accumulate`` never sums pairwise, unlike ``reduce``) —
        bit-identical results.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        terms = np.concatenate(
            (
                np.full((states.shape[0], 1), self.offset),
                states * self.linear,
                self.edge_bias * states[:, self.edge_u] * states[:, self.edge_v],
            ),
            axis=1,
        )
        return np.ascontiguousarray(np.add.accumulate(terms, axis=1)[:, -1])

    # ------------------------------------------------------------------
    # Local fields and single-flip deltas
    # ------------------------------------------------------------------
    def local_fields(self, states: np.ndarray) -> np.ndarray:
        """``linear_i + Σ_j bias_ij · x_j`` for every variable and row."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if self.dense is not None:
            return states @ self.dense + self.linear
        fields = np.broadcast_to(self.linear, states.shape).copy()
        for i, neighbors in enumerate(self.neighbor_index):
            if neighbors.size:
                fields[:, i] += states[:, neighbors] @ self.neighbor_bias[i]
        return fields

    def flip_deltas(self, states: np.ndarray) -> np.ndarray:
        """Energy change of flipping each variable, per row.

        Spin models toggle ``s → -s`` (``ΔE_i = -2 s_i f_i``); binary
        models toggle ``x → 1-x`` (``ΔE_i = (1-2x_i) f_i``), with
        ``f`` the :meth:`local_fields`.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        fields = self.local_fields(states)
        if self.vartype is Vartype.SPIN:
            return -2.0 * states * fields
        return (1.0 - 2.0 * states) * fields

    def apply_flip(
        self, states: np.ndarray, fields: np.ndarray, row: int, i: int
    ) -> None:
        """Flip variable ``i`` of ``row`` in place, updating ``fields``.

        The incremental form of :meth:`local_fields`: one flip costs
        ``O(degree(i))`` instead of a full recomputation.
        """
        if self.vartype is Vartype.SPIN:
            states[row, i] *= -1.0
            shift = 2.0 * states[row, i]
        else:
            old = states[row, i]
            states[row, i] = 1.0 - old
            shift = states[row, i] - old
        neighbors = self.neighbor_index[i]
        if neighbors.size:
            fields[row, neighbors] += shift * self.neighbor_bias[i]


def compile_bqm(
    bqm: BinaryQuadraticModel,
    with_spin: bool = True,
    dense_size_threshold: int = DENSE_SIZE_THRESHOLD,
    dense_density_threshold: float = DENSE_DENSITY_THRESHOLD,
) -> CompiledBQM:
    """Lower a dict-backed model into its array-backed compiled form.

    ``with_spin`` additionally compiles the spin-domain companion that
    the annealing/tabu kernels sweep (a no-op for spin models); pass
    ``False`` for evaluation-only uses to skip one conversion walk.

    The dense coupling matrix is materialized for models at or under
    ``dense_size_threshold`` variables, or whose interaction density
    exceeds ``dense_density_threshold``.
    """
    variables = bqm.variables
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    linear_map = bqm.linear
    linear = np.fromiter((linear_map[v] for v in variables), dtype=float, count=n)
    terms = list(bqm.interactions())
    m = len(terms)
    edge_u = np.fromiter((index[t[0]] for t in terms), dtype=np.intp, count=m)
    edge_v = np.fromiter((index[t[1]] for t in terms), dtype=np.intp, count=m)
    edge_bias = np.fromiter((t[2] for t in terms), dtype=float, count=m)

    dense: Optional[np.ndarray] = None
    max_edges = n * (n - 1) / 2.0
    density = (m / max_edges) if max_edges else 0.0
    if n and (n <= dense_size_threshold or density >= dense_density_threshold):
        # each unordered pair appears once, so no index repeats
        dense = np.zeros((n, n), dtype=float)
        dense[edge_u, edge_v] += edge_bias
        dense[edge_v, edge_u] += edge_bias

    spin: Optional[CompiledBQM] = None
    if with_spin and bqm.vartype is Vartype.BINARY:
        spin = compile_bqm(
            bqm.change_vartype(Vartype.SPIN),
            with_spin=False,
            dense_size_threshold=dense_size_threshold,
            dense_density_threshold=dense_density_threshold,
        )

    return CompiledBQM(
        vartype=bqm.vartype,
        offset=bqm.offset,
        variables=variables,
        linear=linear,
        edge_u=edge_u,
        edge_v=edge_v,
        edge_bias=edge_bias,
        dense=dense,
        spin=spin,
    )
