"""Direct QUBO encoding of the join ordering problem (future work the
paper calls for in Sec. 7).

The paper's two-step transformation (MILP → BILP → QUBO) spends most
of its qubits on slack variables for inequality constraints.  Its
discussion explicitly asks whether "a direct conversion without first
transforming the problem into an MILP problem" could be cheaper in
qubits.  This module prototypes such an encoding:

**Variables** — a permutation matrix: ``x[r, pos] = 1`` iff relation
``r`` sits at position ``pos`` of the left-deep order.  That is
:math:`T^2` qubits — *quadratically* fewer than the two-step
encoding's :math:`O(T^2) + O(TP) + O(R \\log(1/\\omega))` slack-heavy
budget (e.g. 196 vs ~1,066 qubits at T = 14, P = J).

**Validity** — one-hot rows and columns, penalised quadratically:

.. math:: H_{valid} = A \\sum_r \\Big(1 - \\sum_{pos} x_{r,pos}\\Big)^2
                    + A \\sum_{pos} \\Big(1 - \\sum_r x_{r,pos}\\Big)^2

**Cost** — the prefix-membership indicator
:math:`\\pi_{r,k} = \\sum_{pos \\le k} x_{r,pos}` is *linear* in the
variables, so the **logarithmic** intermediate cardinality of the
length-``k`` prefix,

.. math:: lco_k = \\sum_r \\log|R_r| \\; \\pi_{r,k}
                + \\sum_{p=(a,b)} \\log f_p \\; \\pi_{a,k} \\pi_{b,k},

is quadratic — no slack variables, no thresholds.  The objective

.. math:: H_{cost} = \\sum_{k=2}^{T-1} lco_k

minimises the *sum of log-cardinalities* (the geometric mean of the
intermediate results) rather than C_out's arithmetic sum.  This is the
encoding's honest trade-off: it is exact about which relations meet
when, but optimises a log-domain surrogate of C_out.  On well-behaved
instances the two objectives agree on the optimum (validated by the
tests against the DP baseline); adversarial cardinality spreads can
make them diverge, which is why the module reports the surrogate
explicitly instead of pretending to minimise C_out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ProblemError
from repro.joinorder.classical import JoinOrderResult
from repro.joinorder.cost import cout_cost
from repro.joinorder.query_graph import QueryGraph
from repro.qubo.bqm import BinaryQuadraticModel, Vartype
from repro.qubo.compiled import CompiledBQM, coalesce_interactions


def variable_name(relation: str, position: int) -> str:
    """Naming convention of the permutation-matrix variables."""
    return f"x[{relation},{position}]"


@dataclass
class DirectJoinOrderQubo:
    """Builder for the direct (slack-free) join-ordering QUBO.

    Parameters
    ----------
    graph:
        The query graph.
    log_base:
        Base of the logarithmic cost encoding.
    penalty:
        One-hot constraint weight ``A``; ``None`` derives a safe value
        exceeding the largest possible objective swing.
    """

    graph: QueryGraph
    log_base: float = 10.0
    penalty: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """``T^2`` — the full permutation matrix."""
        t = self.graph.num_relations
        return t * t

    def _log(self, value: float) -> float:
        return math.log(value, self.log_base)

    def default_penalty(self) -> float:
        """A weight dominating any achievable cost change.

        The objective's magnitude is bounded by every log-cardinality
        and log-selectivity being counted in every prefix; one-hot
        violations must cost more than that entire swing.
        """
        t = self.graph.num_relations
        swing = sum(
            abs(self._log(r.cardinality)) for r in self.graph.relations
        ) * t
        swing += sum(
            abs(self._log(p.selectivity)) for p in self.graph.predicates
        ) * t
        return swing + 1.0

    # ------------------------------------------------------------------
    def build(self) -> BinaryQuadraticModel:
        """Assemble ``A·H_valid + H_cost``."""
        graph = self.graph
        names = graph.relation_names
        t = graph.num_relations
        weight = self.penalty if self.penalty is not None else self.default_penalty()

        bqm = BinaryQuadraticModel(vartype=Vartype.BINARY)
        for r in names:
            for pos in range(t):
                bqm.add_linear(variable_name(r, pos), 0.0)

        # --- H_valid: one-hot rows (relations) and columns (positions)
        def one_hot(group: Sequence[str]) -> None:
            # (1 - sum x)^2 = 1 - sum x + 2 sum_{i<j} x_i x_j  (x^2 = x)
            bqm.offset += weight
            for v in group:
                bqm.add_linear(v, -weight)
            for a, b in itertools.combinations(group, 2):
                bqm.add_quadratic(a, b, 2.0 * weight)

        for r in names:
            one_hot([variable_name(r, pos) for pos in range(t)])
        for pos in range(t):
            one_hot([variable_name(r, pos) for r in names])

        # --- H_cost: sum of log prefix cardinalities over prefixes
        # 2..T-1 (the length-T prefix is permutation-invariant).
        # prefix membership pi_{r,k} = sum_{pos <= k} x[r,pos]; the
        # relation term is linear, the predicate term quadratic.
        for k in range(2, t):  # prefix lengths 2..T-1
            positions = range(k)
            for r in graph.relations:
                coeff = self._log(r.cardinality)
                for pos in positions:
                    bqm.add_linear(variable_name(r.name, pos), coeff)
            for p in graph.predicates:
                coeff = self._log(p.selectivity)
                for pos_a in positions:
                    for pos_b in positions:
                        va = variable_name(p.first, pos_a)
                        vb = variable_name(p.second, pos_b)
                        bqm.add_quadratic(va, vb, coeff)
        return bqm

    def build_compiled(self) -> CompiledBQM:
        """The model :meth:`build` assembles, written straight into arrays.

        Variable ``r * T + pos`` is ``x[r, pos]``.  Every coefficient is
        summed with the same float operations in the same order as
        :meth:`build`'s dict accumulation, so the result equals
        ``compile_bqm(self.build())`` bit for bit.
        """
        graph = self.graph
        names = graph.relation_names
        t = graph.num_relations
        weight = self.penalty if self.penalty is not None else self.default_penalty()
        variables = [variable_name(r, pos) for r in names for pos in range(t)]

        # linear: the row and the column one-hot, then each prefix's
        # relation terms; offset: +A per one-hot group
        linear = np.zeros((t, t))
        linear += -weight
        linear += -weight
        offset = 0.0
        for _ in range(2 * t):
            offset += weight
        log_cards = np.array([self._log(r.cardinality) for r in graph.relations])
        for k in range(2, t):
            linear[:, :k] += log_cards[:, None]

        # quadratic calls in build()'s order: one-hot pairs per row, per
        # column, then the predicate terms per prefix and predicate
        first, second = np.triu_indices(t, 1)
        lanes = np.arange(t)[:, None]
        rows = [(lanes * t + first).ravel(), (first * t + lanes).ravel()]
        cols = [(lanes * t + second).ravel(), (second * t + lanes).ravel()]
        biases = [np.full(2 * t * first.size, 2.0 * weight)]
        where = {name: i for i, name in enumerate(names)}
        ends = np.array(
            [(where[p.first], where[p.second]) for p in graph.predicates], dtype=np.intp
        ).reshape(-1, 2)
        log_sels = np.array([self._log(p.selectivity) for p in graph.predicates])
        for k in range(2, t):
            pos_a, pos_b = np.divmod(np.arange(k * k), k)
            rows.append((ends[:, :1] * t + pos_a).ravel())
            cols.append((ends[:, 1:] * t + pos_b).ravel())
            biases.append(np.repeat(log_sels, k * k))
        edge_u, edge_v, edge_bias = coalesce_interactions(
            variables, np.concatenate(rows), np.concatenate(cols), np.concatenate(biases)
        )
        return CompiledBQM(
            Vartype.BINARY, offset, variables, linear.ravel(), edge_u, edge_v, edge_bias
        )

    # ------------------------------------------------------------------
    def decode(self, sample: Dict[str, int], method: str = "direct") -> JoinOrderResult:
        """Permutation matrix → join order (raises on invalid one-hots)."""
        names = self.graph.relation_names
        t = self.graph.num_relations
        order = []
        for pos in range(t):
            chosen = [
                r for r in names if sample.get(variable_name(r, pos), 0) == 1
            ]
            if len(chosen) != 1:
                raise ProblemError(
                    f"position {pos} selects {len(chosen)} relations"
                )
            order.append(chosen[0])
        self.graph.validate_permutation(order)
        return JoinOrderResult(
            order=tuple(order),
            cost=cout_cost(self.graph, order),
            method=method,
        )

    def surrogate_objective(self, order: Sequence[str]) -> float:
        """The log-domain cost the encoding actually minimises."""
        self.graph.validate_permutation(order)
        total = 0.0
        for k in range(2, self.graph.num_relations):
            prefix = order[:k]
            total += sum(self._log(self.graph.cardinality(r)) for r in prefix)
            total += sum(
                self._log(p.selectivity)
                for p in self.graph.predicates_within(prefix)
            )
        return total

    def qubit_savings_vs_two_step(self, two_step_qubits: int) -> float:
        """Fractional qubit saving against the paper's pipeline."""
        return 1.0 - self.num_qubits / two_step_qubits


def solve_direct_with_annealer(
    builder: DirectJoinOrderQubo,
    num_reads: int = 100,
    num_sweeps: int = 500,
    seed: Optional[int] = None,
) -> JoinOrderResult:
    """Sample the direct QUBO and decode the best valid permutation."""
    from repro.annealing.simulated_annealing import SimulatedAnnealingSampler

    bqm = builder.build()
    sampler = SimulatedAnnealingSampler(num_sweeps=num_sweeps, seed=seed)
    sample_set = sampler.sample(bqm, num_reads=num_reads)
    best: Optional[JoinOrderResult] = None
    for record in sample_set:
        try:
            decoded = builder.decode(record.sample)
        except ProblemError:
            continue
        if best is None or decoded.cost < best.cost:
            best = decoded
    if best is None:
        raise ProblemError("no valid permutation among the samples")
    return best
