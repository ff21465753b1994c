"""Array-backed representation of a binary quadratic model.

The dict-of-dicts :class:`~repro.qubo.bqm.BinaryQuadraticModel` is the
modelling API of the paper's experiments, but a hash lookup and a
Python-level multiply per term is too slow for solver inner loops and
for the service's cold misses.  A :class:`CompiledBQM` holds the same
model as flat numpy arrays.  The service's QUBO builders
(:meth:`~repro.mqo.qubo.MqoQuboBuilder.build_compiled`,
:meth:`~repro.joinorder.direct_qubo.DirectJoinOrderQubo.build_compiled`)
write these arrays directly, :func:`compile_bqm` lowers a dict model
through the same constructor, and the solver kernels
(:mod:`repro.annealing.simulated_annealing`, :mod:`repro.hybrid.tabu`),
the decomposition loop (:mod:`repro.hybrid.solver`) and exact
enumeration (:mod:`repro.qubo.exact`) consume them.

A :class:`CompiledBQM` holds

* an index-mapped linear-bias vector (``linear[i]`` is the bias of
  ``variables[i]``, insertion order preserved),
* the quadratic terms as parallel edge arrays ``(edge_u, edge_v,
  edge_bias)`` in the model's :meth:`interactions` emission order,

and derives on first use

* per-variable neighbour/coupling arrays (a CSR-style adjacency) whose
  entry order replicates the order the dict samplers accumulated in,
  so vectorized local-field evaluations are **bit-identical** to the
  seed implementation,
* for binary models, the spin companion (the domain the annealing
  kernels sweep in), converted from the arrays.

:meth:`CompiledBQM.clamp` fixes every variable outside a block at its
incumbent value and returns the block's compiled subproblem, equal bit
for bit to ``compile_bqm(clamp_subproblem(...))`` of the dict model.

The one energy evaluator, :meth:`CompiledBQM.energies_compat`, sums
term by term in the exact accumulation order of
:meth:`BinaryQuadraticModel.energy`, vectorized across rows only.  It is
bit-identical to the dict implementation — this is what the samplers
report, which is why the golden seed-compatibility fixtures survive the
kernel rewrite unchanged.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import VariableError
from repro.qubo.bqm import SUBSTITUTION, BinaryQuadraticModel, Vartype

__all__ = ["CompiledBQM", "as_compiled", "coalesce_interactions", "compile_bqm"]

class CompiledBQM:
    """Array-backed form of one binary quadratic model.

    The constructor takes the model's arrays — ``linear`` in variable
    order and the edges in :meth:`BinaryQuadraticModel.interactions`
    order — and is the one lowering path: :func:`compile_bqm` and the
    QUBO builders both end here.

    Instances are immutable once built and safe to share across threads
    (one compiled model serves every stage of a request's fallback
    chain).  Derived arrays are
    computed on first use; two threads racing on one compute the same
    value.
    """

    def __init__(
        self,
        vartype: Vartype,
        offset: float,
        variables: Sequence[Hashable],
        linear: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_bias: np.ndarray,
    ) -> None:
        self.vartype = vartype
        self.offset = float(offset)
        self.variables = tuple(variables)
        self.linear = np.ascontiguousarray(linear, dtype=float)
        self.edge_u = np.asarray(edge_u, dtype=np.intp)
        self.edge_v = np.asarray(edge_v, dtype=np.intp)
        self.edge_bias = np.asarray(edge_bias, dtype=float)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_interactions(self) -> int:
        return int(self.edge_bias.size)

    @cached_property
    def index(self) -> Dict[Hashable, int]:
        """Variable → position in :attr:`variables`."""
        return {v: i for i, v in enumerate(self.variables)}

    @cached_property
    def str_order(self) -> List[int]:
        """Variable indices sorted by ``str(variable)``, ties in index
        order — the decomposition stack's deterministic ordering."""
        keys = [str(v) for v in self.variables]
        return sorted(range(len(keys)), key=keys.__getitem__)

    @cached_property
    def str_rank(self) -> np.ndarray:
        """Dense rank of ``str(variable)``: equal strings share a rank, so
        a stable sort on it equals a stable sort on ``key=str``."""
        return _dense_rank([str(v) for v in self.variables], self.str_order)

    @cached_property
    def _adjacency(self) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
        # per-variable adjacency in the dict samplers' append order (both
        # endpoints of each edge, interactions() emission order): a stable
        # sort of the interleaved endpoints keeps that order per variable
        n = self.num_variables
        ends = np.column_stack((self.edge_u, self.edge_v)).ravel()
        by_end = np.argsort(ends, kind="stable")
        biases = np.repeat(self.edge_bias, 2)
        nbrs = np.column_stack((self.edge_v, self.edge_u)).ravel()[by_end]
        cpls = biases[by_end]
        bounds = [0, *np.cumsum(np.bincount(ends, minlength=n)).tolist()]
        spans = list(zip(bounds, bounds[1:]))
        # |linear| + Σ|bias| per variable; ufunc.at adds in index order,
        # the exact order the dict-based β-schedule heuristic used
        totals = np.abs(self.linear)
        np.add.at(totals, ends, np.abs(biases))
        return [nbrs[a:b] for a, b in spans], [cpls[a:b] for a, b in spans], totals

    @property
    def neighbor_index(self) -> List[np.ndarray]:
        """``neighbor_index[i]``: indices of ``i``'s neighbours."""
        return self._adjacency[0]

    @property
    def neighbor_bias(self) -> List[np.ndarray]:
        """``neighbor_bias[i]``: the couplings matching ``neighbor_index[i]``."""
        return self._adjacency[1]

    @property
    def abs_totals(self) -> np.ndarray:
        """``|linear_i| + Σ_j |bias_ij|`` per variable."""
        return self._adjacency[2]

    @cached_property
    def _folds(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # each coupling in both directions, (source, target, bias,
        # source-is-the-lower-endpoint), stably sorted by source
        lo = np.minimum(self.edge_u, self.edge_v)
        hi = np.maximum(self.edge_u, self.edge_v)
        source = np.concatenate((lo, hi))
        by_source = np.argsort(source, kind="stable")
        forward = np.arange(2 * lo.size) < lo.size
        return (
            source[by_source],
            np.concatenate((hi, lo))[by_source],
            np.concatenate((self.edge_bias, self.edge_bias))[by_source],
            forward[by_source],
        )

    @cached_property
    def _spin(self) -> "CompiledBQM":
        return self.change_vartype(Vartype.SPIN)

    @property
    def spin(self) -> "CompiledBQM":
        """The spin-domain companion (``self`` for spin models)."""
        if self.vartype is Vartype.SPIN:
            return self
        return self._spin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledBQM({self.num_variables} variables, "
            f"{self.num_interactions} interactions, {self.vartype.name})"
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def change_vartype(self, vartype: Vartype) -> "CompiledBQM":
        """The energy-equivalent model over ``vartype``, from the arrays.

        Every coefficient is formed and summed in the order of
        :meth:`BinaryQuadraticModel.change_vartype` (offset terms left
        to right, each endpoint's linear terms in edge order), so the
        result equals ``compile_bqm(bqm.change_vartype(vartype))``.
        """
        if vartype is self.vartype:
            return self
        lin_k, lin_off_k, quad_k, quad_lin_k, quad_off_k = SUBSTITUTION[vartype]
        # ``0.0 +`` turns -0.0 into 0.0, as the dict conversion does
        linear = 0.0 + lin_k * self.linear
        ends = np.column_stack((self.edge_u, self.edge_v)).ravel()
        np.add.at(linear, ends, np.repeat(quad_lin_k * self.edge_bias, 2))
        offset = _sequential_sum(
            self.offset, lin_off_k * self.linear, quad_off_k * self.edge_bias
        )
        return CompiledBQM(
            vartype, offset, self.variables, linear,
            self.edge_u, self.edge_v, 0.0 + quad_k * self.edge_bias,
        )

    def to_bqm(self) -> BinaryQuadraticModel:
        """The dict model (same variable and :meth:`interactions` order)."""
        variables = self.variables
        return BinaryQuadraticModel(
            dict(zip(variables, self.linear.tolist())),
            {
                (variables[u], variables[v]): bias
                for u, v, bias in zip(
                    self.edge_u.tolist(), self.edge_v.tolist(), self.edge_bias.tolist()
                )
            },
            offset=self.offset,
            vartype=self.vartype,
        )

    def to_numpy_matrix(self) -> Tuple[np.ndarray, float, Tuple[Hashable, ...]]:
        """Dense upper-triangular QUBO matrix ``(Q, offset, variables)``,
        equal to :meth:`BinaryQuadraticModel.to_numpy_matrix` of the
        dict model (spin models are converted to binary first)."""
        binary = self.change_vartype(Vartype.BINARY)
        n = binary.num_variables
        q = np.zeros((n, n), dtype=float)
        q[np.arange(n), np.arange(n)] = binary.linear
        # each unordered pair appears once, so no index repeats
        rows = np.minimum(binary.edge_u, binary.edge_v)
        cols = np.maximum(binary.edge_u, binary.edge_v)
        q[rows, cols] += binary.edge_bias
        return q, binary.offset, binary.variables

    # ------------------------------------------------------------------
    # Clamping
    # ------------------------------------------------------------------
    def clamp(self, block: Sequence[int], state: np.ndarray) -> "CompiledBQM":
        """The subproblem over variable indices ``block``, every other
        variable fixed at its value in ``state``.

        Reproduces :func:`~repro.hybrid.decomposer.clamp_subproblem`
        bit for bit: variables are fixed in index order, each coupling
        to a fixed variable folds ``bias * value`` into the other
        endpoint's linear term when the first of its endpoints is
        fixed, and each fixed variable adds ``linear * value`` (its
        folds included) to the offset.  The subproblem keeps the model's
        variable order, whatever the order of ``block``.
        """
        n = self.num_variables
        state = np.asarray(state, dtype=float)
        free = np.zeros(n, dtype=bool)
        free[np.asarray(block, dtype=np.intp)] = True
        source, target, bias, forward = self._folds
        # a coupling folds once, from its lower fixed endpoint: lower →
        # upper when the lower is fixed, upper → lower when only the upper
        # is; folds sorted by source replay the fix order per target
        active = ~free[source] & (forward | free[target])
        linear = self.linear.copy()
        np.add.at(linear, target[active], bias[active] * state[source[active]])

        fixed = np.flatnonzero(~free)
        offset = _sequential_sum(self.offset, linear[fixed] * state[fixed])
        keep = np.flatnonzero(free)
        position = np.cumsum(free) - 1
        inner = free[self.edge_u] & free[self.edge_v]
        variables = self.variables
        return CompiledBQM(
            self.vartype, offset, [variables[i] for i in keep.tolist()], linear[keep],
            position[self.edge_u[inner]], position[self.edge_v[inner]],
            self.edge_bias[inner],
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

    def to_sample(self, state: np.ndarray) -> Dict[Hashable, int]:
        """One ``(n,)`` state vector → assignment dict with int values."""
        return dict(zip(self.variables, np.asarray(state).astype(np.int64).tolist()))

    def states_to_samples(self, states: np.ndarray) -> List[Dict[Hashable, int]]:
        """``(rows, n)`` matrix → assignment dicts with int values."""
        return [self.to_sample(row) for row in states]

    # ------------------------------------------------------------------
    # Energy evaluation
    # ------------------------------------------------------------------
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


def _sequential_sum(start: float, *terms: np.ndarray) -> float:
    """``start + t0 + t1 + ...`` strictly left to right, as a Python
    ``+=`` loop sums (``ufunc.accumulate`` never sums pairwise)."""
    series = np.concatenate(([start], *terms))
    return float(np.add.accumulate(series)[-1])


def _dense_rank(keys: Sequence, order: Sequence[int]) -> np.ndarray:
    """Rank of each key in ``order`` (its stable sort), equal keys equal."""
    rank = np.empty(len(keys), dtype=np.intp)
    current, previous = -1, None
    for position, i in enumerate(order):
        if position == 0 or keys[i] != previous:
            current, previous = current + 1, keys[i]
        rank[i] = current
    return rank


def coalesce_interactions(
    variables: Sequence[Hashable],
    rows: np.ndarray,
    cols: np.ndarray,
    biases: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of a stream of ``add_quadratic(rows[k], cols[k], biases[k])``
    calls on a dict model with ``variables`` registered in order.

    Returns ``(edge_u, edge_v, edge_bias)`` exactly as
    :meth:`BinaryQuadraticModel.interactions` of that model emits them:
    each pair's biases summed from ``0.0`` in call order, pairs ordered
    by their lower-index endpoint and then by first call, each pair
    oriented by ``(type name, str)``.  ``rows[k] != cols[k]`` for all
    ``k``.
    """
    n = len(variables)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    lo = np.minimum(rows, cols)
    pairs, first, inverse = np.unique(
        lo * n + np.maximum(rows, cols), return_index=True, return_inverse=True
    )
    summed = np.zeros(pairs.size, dtype=float)
    np.add.at(summed, inverse.ravel(), np.asarray(biases, dtype=float))
    pair_lo, pair_hi = np.divmod(pairs, n)
    walk = np.lexsort((first, pair_lo))
    pair_lo, pair_hi, summed = pair_lo[walk], pair_hi[walk], summed[walk]
    keys = [(str(type(v)), str(v)) for v in variables]
    rank = _dense_rank(keys, sorted(range(n), key=keys.__getitem__))
    swap = rank[pair_hi] < rank[pair_lo]
    return np.where(swap, pair_hi, pair_lo), np.where(swap, pair_lo, pair_hi), summed


def compile_bqm(bqm: BinaryQuadraticModel) -> CompiledBQM:
    """Lower a dict-backed model into its array-backed compiled form."""
    variables = bqm.variables
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    linear_map = bqm.linear
    linear = np.fromiter((linear_map[v] for v in variables), dtype=float, count=n)
    terms = list(bqm.interactions())
    m = len(terms)
    return CompiledBQM(
        bqm.vartype,
        bqm.offset,
        variables,
        linear,
        np.fromiter((index[t[0]] for t in terms), dtype=np.intp, count=m),
        np.fromiter((index[t[1]] for t in terms), dtype=np.intp, count=m),
        np.fromiter((t[2] for t in terms), dtype=float, count=m),
    )


def as_compiled(model: Union[BinaryQuadraticModel, CompiledBQM]) -> CompiledBQM:
    """``model`` itself when already compiled, else ``compile_bqm(model)``."""
    return model if isinstance(model, CompiledBQM) else compile_bqm(model)
