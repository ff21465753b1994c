"""QUBO formulation of MQO (paper Sec. 5.1, after [Trummer & Koch 2016]).

The energy formula (Eq. 29) is

.. math:: E = \\omega_L E_L + \\omega_M E_M + E_C + E_S

with

* :math:`E_L = -\\sum_p X_p` — rewards selecting plans (Eq. 30);
* :math:`E_M = \\sum_q \\sum_{\\{p1,p2\\} \\subseteq P_q} X_{p1} X_{p2}`
  — penalises selecting two plans of the same query (Eq. 31);
* :math:`E_C = \\sum_p c_p X_p` — execution costs (Eq. 32);
* :math:`E_S = -\\sum_{\\{p1,p2\\}} s_{p1,p2} X_{p1} X_{p2}` — savings
  (Eq. 33);

and penalty weights satisfying ``ω_L > max_p c_p`` (Eq. 34) and
``ω_M > ω_L + max_p1 Σ_p2 s_{p1,p2}`` (Eq. 35), which make every
energy-minimising assignment select exactly one plan per query.

One binary variable (qubit) per plan; the E_M cliques and E_S pairs
are the quadratic terms whose count drives the QAOA depth in Fig. 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List

import numpy as np

from repro.mqo.problem import MqoProblem, MqoSolution
from repro.qubo.bqm import BinaryQuadraticModel, Vartype
from repro.qubo.compiled import CompiledBQM, coalesce_interactions
from repro.qubo.expression import BinaryExpression, BinaryVariable, Constant


def variable_name(plan_id: int) -> str:
    """QUBO variable naming convention: ``x<plan_id>``."""
    return f"x{plan_id}"


@dataclass
class MqoQuboBuilder:
    """Builds the four-term energy formula for an MQO instance.

    The default weights are the smallest values strictly satisfying
    Eqs. 34–35 (with margin 1), matching the paper's requirement that
    invalid solutions always cost more than any valid one.
    """

    problem: MqoProblem
    weight_margin: float = 1.0

    # ------------------------------------------------------------------
    def weight_l(self) -> float:
        """ω_L > max_p c_p (Eq. 34)."""
        return self.problem.max_plan_cost() + self.weight_margin

    def weight_m(self) -> float:
        """ω_M > ω_L + max_p1 Σ_p2 s (Eq. 35)."""
        return self.weight_l() + self.problem.max_savings_of_any_plan() + self.weight_margin

    # ------------------------------------------------------------------
    def term_el(self) -> BinaryExpression:
        """E_L (Eq. 30): reward each selected plan."""
        expr = Constant(0.0)
        for p in self.problem.plans:
            expr = expr - BinaryVariable(variable_name(p.plan_id))
        return expr

    def term_em(self) -> BinaryExpression:
        """E_M (Eq. 31): clique penalty within each query's plan set."""
        expr = Constant(0.0)
        for _, plans in sorted(self.problem.plans_by_query().items()):
            for a, b in itertools.combinations(plans, 2):
                expr = expr + (
                    BinaryVariable(variable_name(a.plan_id))
                    * BinaryVariable(variable_name(b.plan_id))
                )
        return expr

    def term_ec(self) -> BinaryExpression:
        """E_C (Eq. 32): plan execution costs."""
        expr = Constant(0.0)
        for p in self.problem.plans:
            expr = expr + p.cost * BinaryVariable(variable_name(p.plan_id))
        return expr

    def term_es(self) -> BinaryExpression:
        """E_S (Eq. 33): subexpression-sharing savings."""
        expr = Constant(0.0)
        for s in self.problem.savings:
            expr = expr - s.amount * (
                BinaryVariable(variable_name(s.plan_a))
                * BinaryVariable(variable_name(s.plan_b))
            )
        return expr

    # ------------------------------------------------------------------
    def energy_expression(self) -> BinaryExpression:
        """The full energy formula E (Eq. 29)."""
        return (
            self.weight_l() * self.term_el()
            + self.weight_m() * self.term_em()
            + self.term_ec()
            + self.term_es()
        )

    def build(self) -> BinaryQuadraticModel:
        """Compile the energy formula into a BQM.

        Every plan variable is registered even if its biases cancel, so
        the qubit count always equals the plan count (Sec. 5.3.1).
        """
        bqm = self.energy_expression().compile()
        for p in self.problem.plans:
            bqm.add_linear(variable_name(p.plan_id), 0.0)
        return bqm

    def build_compiled(self) -> CompiledBQM:
        """The model :meth:`build` compiles, written straight into arrays.

        Replays :meth:`energy_expression`'s term sums without the
        expression algebra: the same monomials, in the order the sums
        create them, with the same float operations and the same
        dropping of terms that sum to zero.  The result equals
        ``compile_bqm(self.build())`` bit for bit.
        """
        weight_l, weight_m = float(self.weight_l()), float(self.weight_m())
        plans = self.problem.plans
        terms: Dict[Hashable, float] = {}

        def add(term: Hashable, coefficient: float) -> None:
            total = terms.get(term, 0.0) + coefficient
            if total != 0.0:
                terms[term] = total
            else:
                terms.pop(term, None)

        # ω_L·E_L + ω_M·E_M + E_C + E_S, each factor a product with a
        # unit-coefficient variable term; zero factors add nothing
        if weight_l:
            for p in plans:
                add(variable_name(p.plan_id), -1.0 * weight_l)
        if weight_m:
            for _, group in sorted(self.problem.plans_by_query().items()):
                for a, b in itertools.combinations(group, 2):
                    add(frozenset((variable_name(a.plan_id), variable_name(b.plan_id))),
                        1.0 * weight_m)
        for p in plans:
            if p.cost:
                add(variable_name(p.plan_id), 1.0 * float(p.cost))
        for s in self.problem.savings:
            if s.amount:
                add(frozenset((variable_name(s.plan_a), variable_name(s.plan_b))),
                    -(1.0 * float(s.amount)))

        # BinaryExpression.compile() registers variables as terms arrive,
        # then build() registers every plan variable
        index: Dict[str, int] = {}
        linear: List[float] = []
        rows: List[int] = []
        cols: List[int] = []
        biases: List[float] = []

        def register(name: str) -> int:
            if name not in index:
                index[name] = len(linear)
                linear.append(0.0)
            return index[name]

        for term, coefficient in terms.items():
            if isinstance(term, str):
                linear[register(term)] = coefficient
            else:
                u, v = sorted(term, key=str)
                rows.append(register(u))
                cols.append(register(v))
                biases.append(coefficient)
        for p in plans:
            register(variable_name(p.plan_id))
        variables = list(index)
        edge_u, edge_v, edge_bias = coalesce_interactions(variables, rows, cols, biases)
        return CompiledBQM(
            Vartype.BINARY, 0.0, variables, np.array(linear), edge_u, edge_v, edge_bias
        )

    # ------------------------------------------------------------------
    def decode(self, sample: Dict[str, int], method: str = "") -> MqoSolution:
        """Interpret a binary sample as a plan selection."""
        selected = tuple(
            p.plan_id
            for p in self.problem.plans
            if sample.get(variable_name(p.plan_id), 0) == 1
        )
        return MqoSolution.from_selection(self.problem, selected, method=method)


def mqo_to_bqm(problem: MqoProblem) -> BinaryQuadraticModel:
    """Convenience wrapper: MQO instance → QUBO model."""
    return MqoQuboBuilder(problem).build()


def quadratic_term_count(problem: MqoProblem) -> int:
    """Closed-form number of quadratic terms of the MQO QUBO.

    E_M contributes ``C(|P_q|, 2)`` per query, E_S one per saving;
    a saving between same-query plans would coincide with an E_M term,
    but savings are only defined across queries, so the counts add.
    """
    per_query = sum(
        len(plans) * (len(plans) - 1) // 2
        for plans in problem.plans_by_query().values()
    )
    return per_query + len(problem.savings)
