"""Binary quadratic models over binary (0/1) or spin (±1) variables.

A binary quadratic model (BQM) is the polynomial

.. math::

    E(x) = \\sum_i a_i x_i + \\sum_{i<j} b_{ij} x_i x_j + c

over variables that are either *binary* (:math:`x_i \\in \\{0, 1\\}`, the
QUBO convention) or *spin* (:math:`s_i \\in \\{-1, +1\\}`, the Ising
convention).  The two conventions are related by the affine substitution
:math:`s = 2x - 1`, which the paper (Sec. 3.3) relies on to move between
the QUBO formulation used for modelling and the Ising Hamiltonian consumed
by quantum hardware.

The class mirrors the parts of ``dimod.BinaryQuadraticModel`` that the
paper's implementation uses: named variables, linear/quadratic accessors,
energy evaluation, and conversion to/from the Ising form and to a dense
matrix for the gate-model algorithms.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError, VariableError

Variable = Hashable
Interaction = Tuple[Variable, Variable]


class Vartype(enum.Enum):
    """Domain of the variables of a :class:`BinaryQuadraticModel`."""

    BINARY = "BINARY"
    SPIN = "SPIN"

    @property
    def values(self) -> Tuple[int, int]:
        """The two admissible values of a variable of this type."""
        if self is Vartype.BINARY:
            return (0, 1)
        return (-1, 1)


#: multipliers of the substitution into each vartype: a linear bias
#: goes into (linear, offset), a quadratic bias into (quadratic, each
#: endpoint's linear, offset)
SUBSTITUTION = {
    Vartype.SPIN: (0.5, 0.5, 0.25, 0.25, 0.25),  # x = (s + 1)/2
    Vartype.BINARY: (2.0, -1.0, 4.0, -2.0, 1.0),  # s = 2x - 1
}


class BinaryQuadraticModel:
    """A quadratic polynomial over binary or spin variables.

    Parameters
    ----------
    linear:
        Mapping from variable name to linear bias.
    quadratic:
        Mapping from unordered variable pairs to quadratic bias.  Pairs
        are stored in a canonical order; adding a bias for ``(u, v)`` and
        then ``(v, u)`` accumulates into the same term.
    offset:
        Constant energy offset.
    vartype:
        :class:`Vartype.BINARY` (QUBO) or :class:`Vartype.SPIN` (Ising).
    """

    def __init__(
        self,
        linear: Optional[Mapping[Variable, float]] = None,
        quadratic: Optional[Mapping[Interaction, float]] = None,
        offset: float = 0.0,
        vartype: Vartype = Vartype.BINARY,
    ) -> None:
        if not isinstance(vartype, Vartype):
            raise ModelError(f"vartype must be a Vartype, got {vartype!r}")
        self._vartype = vartype
        self._linear: Dict[Variable, float] = {}
        self._adj: Dict[Variable, Dict[Variable, float]] = {}
        self.offset = float(offset)
        if linear:
            for v, bias in linear.items():
                self.add_linear(v, bias)
        if quadratic:
            for (u, v), bias in quadratic.items():
                self.add_quadratic(u, v, bias)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def vartype(self) -> Vartype:
        """Domain of this model's variables."""
        return self._vartype

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables, in insertion order."""
        return tuple(self._linear)

    @property
    def num_variables(self) -> int:
        """Number of variables in the model."""
        return len(self._linear)

    @property
    def num_interactions(self) -> int:
        """Number of distinct quadratic terms.

        This is the quantity the paper calls the *number of quadratic
        terms in the QUBO matrix* (Table 4, Sec. 6.3.3); it drives both
        the QAOA circuit depth and the annealing embedding difficulty.
        """
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def linear(self) -> Dict[Variable, float]:
        """Copy of the linear biases."""
        return dict(self._linear)

    @property
    def quadratic(self) -> Dict[Interaction, float]:
        """Copy of the quadratic biases, keyed and ordered as :meth:`interactions`."""
        return {(u, v): bias for u, v, bias in self.interactions()}

    def degree(self, v: Variable) -> int:
        """Number of quadratic terms the variable participates in."""
        self._require(v)
        return len(self._adj[v])

    def interactions(self) -> Iterator[Tuple[Variable, Variable, float]]:
        """Iterate over ``(u, v, bias)`` for every quadratic term once.

        Order contract, relied on by compiled adjacency and the golden
        fixtures: each pair is ordered by ``(type name, str)``, and edges
        come in first-visit order of the insertion-ordered adjacency walk.
        """
        key = {v: (str(type(v)), str(v)) for v in self._adj}
        walked = set()
        for u, nbrs in self._adj.items():
            u_key = key[u]
            for v, bias in nbrs.items():
                if v not in walked:
                    yield (v, u, bias) if key[v] < u_key else (u, v, bias)
            walked.add(u)

    def __contains__(self, v: Variable) -> bool:
        return v in self._linear

    def __len__(self) -> int:
        return len(self._linear)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BinaryQuadraticModel({self.num_variables} variables, "
            f"{self.num_interactions} interactions, offset={self.offset:g}, "
            f"{self._vartype.name})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(self, v: Variable, bias: float = 0.0) -> None:
        """Add a variable (accumulating ``bias`` if it already exists)."""
        self.add_linear(v, bias)

    def add_linear(self, v: Variable, bias: float) -> None:
        """Accumulate a linear bias for variable ``v``."""
        self._linear[v] = self._linear.get(v, 0.0) + float(bias)
        self._adj.setdefault(v, {})

    def add_quadratic(self, u: Variable, v: Variable, bias: float) -> None:
        """Accumulate a quadratic bias between ``u`` and ``v``.

        For spin models a self-interaction is a constant (``s*s == 1``)
        and is folded into the offset; for binary models it is a linear
        term (``x*x == x``).
        """
        if u == v:
            if self._vartype is Vartype.SPIN:
                self.offset += float(bias)
            else:
                self.add_linear(u, bias)
            return
        self.add_linear(u, 0.0)
        self.add_linear(v, 0.0)
        self._adj[u][v] = self._adj[u].get(v, 0.0) + float(bias)
        self._adj[v][u] = self._adj[v].get(u, 0.0) + float(bias)

    def get_linear(self, v: Variable) -> float:
        """Linear bias of ``v`` (raises if unknown)."""
        self._require(v)
        return self._linear[v]

    def get_quadratic(self, u: Variable, v: Variable, default: float = 0.0) -> float:
        """Quadratic bias between ``u`` and ``v`` (``default`` if absent)."""
        return self._adj.get(u, {}).get(v, default)

    def remove_interaction(self, u: Variable, v: Variable) -> None:
        """Delete the quadratic term between ``u`` and ``v`` if present."""
        self._adj.get(u, {}).pop(v, None)
        self._adj.get(v, {}).pop(u, None)

    def fix_variable(self, v: Variable, value: int) -> None:
        """Substitute a known value for a variable and remove it.

        Used by pre-processing passes (e.g. pruning in the join-ordering
        model) to shrink a model before handing it to a solver.
        """
        self._require(v)
        lo, hi = self._vartype.values
        if value not in (lo, hi):
            raise ModelError(f"value {value!r} not admissible for {self._vartype}")
        self.offset += self._linear[v] * value
        for u, bias in list(self._adj[v].items()):
            self._linear[u] += bias * value
            self.remove_interaction(u, v)
        del self._linear[v]
        del self._adj[v]

    def update(self, other: "BinaryQuadraticModel", scale: float = 1.0) -> None:
        """Add ``scale * other`` into this model (vartypes must match)."""
        if other.vartype is not self._vartype:
            other = other.change_vartype(self._vartype)
        for v, bias in other._linear.items():
            self.add_linear(v, scale * bias)
        for u, v, bias in other.interactions():
            self.add_quadratic(u, v, scale * bias)
        self.offset += scale * other.offset

    def scale(self, factor: float) -> None:
        """Multiply every bias and the offset by ``factor`` in place."""
        factor = float(factor)
        for v in self._linear:
            self._linear[v] *= factor
        for u in self._adj:
            for v in self._adj[u]:
                self._adj[u][v] *= factor
        self.offset *= factor

    def copy(self) -> "BinaryQuadraticModel":
        """Deep copy of the model."""
        out = BinaryQuadraticModel(vartype=self._vartype, offset=self.offset)
        out._linear = dict(self._linear)
        out._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return out

    # ------------------------------------------------------------------
    # Energy evaluation
    # ------------------------------------------------------------------
    def energy(self, sample: Mapping[Variable, int]) -> float:
        """Energy of one assignment (missing variables raise)."""
        total = self.offset
        for v, bias in self._linear.items():
            try:
                total += bias * sample[v]
            except KeyError:
                raise VariableError(f"sample is missing variable {v!r}") from None
        for u, v, bias in self.interactions():
            total += bias * sample[u] * sample[v]
        return total

    def energies(self, samples: Iterable[Mapping[Variable, int]]) -> np.ndarray:
        """Vector of energies for many assignments."""
        return np.array([self.energy(s) for s in samples], dtype=float)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def change_vartype(self, vartype: Vartype) -> "BinaryQuadraticModel":
        """Return an energy-equivalent model over the other domain.

        Binary → spin substitutes :math:`x = (s + 1)/2`; spin → binary
        substitutes :math:`s = 2x - 1`.  Energies are preserved exactly
        under the corresponding bijection of assignments.
        """
        if vartype is self._vartype:
            return self.copy()
        lin_k, lin_off_k, quad_k, quad_lin_k, quad_off_k = SUBSTITUTION[vartype]
        out = BinaryQuadraticModel(vartype=vartype)
        linear, adj, offset = out._linear, out._adj, self.offset
        # ``0.0 +`` turns -0.0 into 0.0, as add_linear and add_quadratic do
        for v, a in self._linear.items():
            linear[v] = 0.0 + lin_k * a
            adj[v] = {}
            offset += lin_off_k * a
        for u, v, b in self.interactions():
            adj[u][v] = adj[v][u] = 0.0 + quad_k * b
            linear[u] += quad_lin_k * b
            linear[v] += quad_lin_k * b
            offset += quad_off_k * b
        out.offset = offset
        return out

    def to_ising(self) -> Tuple[Dict[Variable, float], Dict[Interaction, float], float]:
        """Return ``(h, J, offset)`` of the equivalent Ising model."""
        spin = self.change_vartype(Vartype.SPIN)
        return spin.linear, spin.quadratic, spin.offset

    @classmethod
    def from_ising(
        cls,
        h: Mapping[Variable, float],
        j: Mapping[Interaction, float],
        offset: float = 0.0,
    ) -> "BinaryQuadraticModel":
        """Build a spin-valued model from Ising coefficients."""
        return cls(linear=h, quadratic=j, offset=offset, vartype=Vartype.SPIN)

    @classmethod
    def from_qubo(
        cls, q: Mapping[Interaction, float], offset: float = 0.0
    ) -> "BinaryQuadraticModel":
        """Build a binary-valued model from a QUBO coefficient mapping.

        Diagonal entries ``(v, v)`` become linear biases.
        """
        bqm = cls(vartype=Vartype.BINARY, offset=offset)
        for (u, v), bias in q.items():
            if u == v:
                bqm.add_linear(u, bias)
            else:
                bqm.add_quadratic(u, v, bias)
        return bqm

    def to_qubo(self) -> Tuple[Dict[Interaction, float], float]:
        """Return ``(Q, offset)`` with linear terms on the diagonal."""
        binary = self.change_vartype(Vartype.BINARY)
        q: Dict[Interaction, float] = {}
        for v, bias in binary._linear.items():
            if bias:
                q[(v, v)] = bias
        for u, v, bias in binary.interactions():
            if bias:
                q[(u, v)] = bias
        return q, binary.offset

    def to_numpy_matrix(
        self, variable_order: Optional[Iterable[Variable]] = None
    ) -> Tuple[np.ndarray, float, Tuple[Variable, ...]]:
        """Dense upper-triangular QUBO matrix.

        Returns ``(Q, offset, order)`` where ``x^T Q x + offset`` equals
        :meth:`energy` for binary assignments ordered by ``order``.
        """
        binary = self if self._vartype is Vartype.BINARY else self.change_vartype(Vartype.BINARY)
        order = tuple(variable_order) if variable_order is not None else binary.variables
        index = {v: i for i, v in enumerate(order)}
        missing = set(binary.variables) - set(order)
        if missing:
            raise VariableError(f"variable_order is missing {sorted(map(str, missing))}")
        n = len(order)
        q = np.zeros((n, n), dtype=float)
        for v, bias in binary._linear.items():
            q[index[v], index[v]] = bias
        for u, v, bias in binary.interactions():
            i, jdx = sorted((index[u], index[v]))
            q[i, jdx] += bias
        return q, binary.offset, order

    def interaction_graph(self):
        """The graph whose nodes are variables and edges quadratic terms.

        This is the *source graph* handed to the minor embedder when the
        model is targeted at an annealer (paper Sec. 6.3.5), imported
        lazily to keep networkx optional for pure-QUBO users.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._linear)
        g.add_edges_from((u, v) for u, v, _ in self.interactions())
        return g

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require(self, v: Variable) -> None:
        if v not in self._linear:
            raise VariableError(f"unknown variable {v!r}")


def all_assignments(
    variables: Tuple[Variable, ...], vartype: Vartype
) -> Iterator[Dict[Variable, int]]:
    """Yield every assignment of ``variables`` over the given domain.

    Exponential in the number of variables; intended for models of at most
    ~22 variables (the exact-solver regime the paper uses to validate the
    QUBO encodings on small instances).
    """
    lo, hi = vartype.values
    for bits in itertools.product((lo, hi), repeat=len(variables)):
        yield dict(zip(variables, bits))
