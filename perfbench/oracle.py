"""Independent correctness check and exact optima for returned plans.

Every plan the serving stack returns is re-validated against its own
problem and its cost recomputed from scratch, without the service's
adapters:

* MQO: ``MqoProblem.is_valid_selection`` and ``execution_cost``;
  optimum from ``repro.mqo.solvers.solve_exhaustive``.
* join order and SQL: ``QueryGraph.validate_permutation`` and
  ``cout_cost`` over the graph (for SQL, the graph ``repro.sql.plan_query``
  derives from the statement); optimum from
  ``repro.joinorder.classical.solve_dp_left_deep``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ProblemError
from repro.joinorder.classical import solve_dp_left_deep
from repro.joinorder.cost import cout_cost
from repro.mqo.solvers import solve_exhaustive

#: relative tolerance when comparing a returned cost with the recomputed one
COST_RTOL = 1e-9


class Template:
    """One distinct problem of a workload, with its oracle data."""

    def __init__(self, index: int, kind: str, problem: Any) -> None:
        self.index = index
        self.kind = kind
        self.problem = problem
        self._graph = None
        self._optimum: Optional[float] = None
        self._verdicts: Dict[Tuple, Optional[str]] = {}

    def graph(self):
        """The join graph a join-order or SQL plan is an order over."""
        if self._graph is None:
            if self.kind == "sql":
                from repro.sql import plan_query

                self._graph = plan_query(self.problem).graph
            else:
                self._graph = self.problem
        return self._graph

    def optimum(self) -> float:
        """Exact optimal cost, computed once."""
        if self._optimum is None:
            if self.kind == "mqo":
                self._optimum = float(solve_exhaustive(self.problem).cost)
            else:
                self._optimum = float(solve_dp_left_deep(self.graph()).cost)
        return self._optimum

    def recompute_cost(self, plan: Dict[str, Any]) -> float:
        """Cost of ``plan`` from the problem itself; raises if invalid."""
        if self.kind == "mqo":
            selected = list(plan.get("selected_plans", ()))
            if not self.problem.is_valid_selection(selected):
                raise ProblemError(f"invalid plan selection {sorted(selected)}")
            return float(self.problem.execution_cost(selected))
        order = list(plan.get("order", ()))
        graph = self.graph()
        graph.validate_permutation(order)
        return float(cout_cost(graph, order))

    def check(self, plan: Dict[str, Any], cost: float) -> Optional[str]:
        """``None`` when ``plan`` is valid and costs ``cost``, else why not."""
        key = (plan_key(plan), cost)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(plan, cost)
        return self._verdicts[key]

    def _check(self, plan: Dict[str, Any], cost: float) -> Optional[str]:
        try:
            expected = self.recompute_cost(plan)
        except ProblemError as exc:
            return f"invalid plan: {exc}"
        if not math.isclose(cost, expected, rel_tol=COST_RTOL, abs_tol=COST_RTOL):
            return f"cost mismatch: returned {cost!r}, recomputed {expected!r}"
        return None


def plan_key(plan: Dict[str, Any]) -> Tuple:
    """Hashable form of a plan payload."""
    return tuple(
        (name, tuple(value) if isinstance(value, (list, tuple)) else value)
        for name, value in sorted(plan.items())
    )
