"""Problem adapters: one QUBO compilation + decode path per problem kind.

The fallback chain is problem-agnostic — it only needs a BQM to hand to
registry solvers, a decoder from raw samples to domain plans, and a
guaranteed-valid classical fallback.  Adapters package those three
things per problem family:

* :class:`MqoAdapter` — MQO QUBO (paper Sec. 5.1); a sample decodes to
  a plan selection, valid iff exactly one plan per query; fallback is
  the greedy locally-optimal selection.
* :class:`JoinOrderAdapter` — the direct permutation-matrix QUBO
  (:mod:`repro.joinorder.direct_qubo`, quadratically fewer qubits than
  the paper's two-step pipeline, so it fits serving latencies);
  a sample decodes to a join order, valid iff the one-hot constraints
  hold; fallback is the GOO-style greedy order.

``compiled`` is where *compilation* happens, once per adapter: it
writes the QUBO straight into :class:`~repro.qubo.compiled.CompiledBQM`
arrays that every chain stage reads; the dict model behind ``bqm`` is
built only on demand.  ``fingerprint`` is the problem's content hash
(same scheme as the harness cache), from which solve seeds derive.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import ProblemError
from repro.joinorder.classical import solve_greedy
from repro.joinorder.cost import cout_cost
from repro.joinorder.direct_qubo import DirectJoinOrderQubo
from repro.joinorder.query_graph import QueryGraph
from repro.mqo.problem import MqoProblem
from repro.mqo.qubo import MqoQuboBuilder
from repro.mqo.solvers import solve_greedy_local
from repro.qubo.bqm import BinaryQuadraticModel

# ``compile_bqm`` stays importable here: perfbench's traced replay times
# ``problems.compile_bqm`` as its ``qubo.compile_ms`` layer, which reads
# zero now that adapters build arrays directly
from repro.qubo.compiled import CompiledBQM, compile_bqm  # noqa: F401
from repro.serialization import (
    mqo_from_dict,
    mqo_to_dict,
    query_graph_from_dict,
    query_graph_to_dict,
    to_jsonable,
)

__all__ = [
    "JoinOrderAdapter",
    "KindSpec",
    "MqoAdapter",
    "kind_spec",
    "make_adapter",
    "problem_fingerprint",
    "register_problem_kind",
    "valid_kinds",
]


def problem_fingerprint(kind: str, payload_dict: Dict[str, Any]) -> str:
    """Content hash of a problem instance (the compilation-cache key)."""
    canonical = json.dumps(
        {"kind": kind, "problem": to_jsonable(payload_dict)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _QuboAdapter:
    """The two forms of an adapter's QUBO, each built once on demand.

    :meth:`compiled` comes straight from the builder's arrays
    (``build_compiled``) and is what every chain stage solves;
    :meth:`bqm`, the dict model, is built only for callers that need it
    (the paper experiments and verification oracles).
    A shared cached adapter may build either form from two threads at
    once; both builds are identical, so the race is benign.
    """

    def __init__(self, builder: Any) -> None:
        self._builder = builder
        self._bqm: Optional[BinaryQuadraticModel] = None
        self._compiled: Optional[CompiledBQM] = None

    def bqm(self) -> BinaryQuadraticModel:
        """The QUBO as a dict model (built once, cached)."""
        if self._bqm is None:
            self._bqm = self._builder.build()
        return self._bqm

    def compiled(self) -> CompiledBQM:
        """The QUBO as arrays (built once, cached); equal to
        ``compile_bqm(self.bqm())`` bit for bit."""
        if self._compiled is None:
            self._compiled = self._builder.build_compiled()
        return self._compiled


class MqoAdapter(_QuboAdapter):
    """MQO requests: QUBO build, selection decode, greedy fallback."""

    kind = "mqo"

    def __init__(self, problem: MqoProblem) -> None:
        super().__init__(MqoQuboBuilder(problem))
        self.problem = problem
        self.fingerprint = problem_fingerprint(self.kind, mqo_to_dict(problem))

    def decode(self, sample: Dict) -> Tuple[Dict[str, Any], float, bool]:
        """Sample → (plan payload, cost, valid)."""
        solution = self._builder.decode(sample, method="service")
        return (
            {"selected_plans": list(solution.selected_plans)},
            float(solution.cost),
            bool(solution.valid),
        )

    def fallback(self, seed: int) -> Tuple[Dict[str, Any], float]:
        """Guaranteed-valid cheapest path: greedy locally-optimal plans."""
        solution = solve_greedy_local(self.problem)
        return {"selected_plans": list(solution.selected_plans)}, float(solution.cost)

    def validate(self, plan: Dict[str, Any]) -> bool:
        """Is a returned plan payload a valid selection?"""
        return self.problem.is_valid_selection(plan.get("selected_plans", ()))


class JoinOrderAdapter(_QuboAdapter):
    """Join-ordering requests over the direct (slack-free) QUBO."""

    kind = "join_order"

    def __init__(self, graph: QueryGraph) -> None:
        super().__init__(DirectJoinOrderQubo(graph))
        self.graph = graph
        self.fingerprint = problem_fingerprint(self.kind, query_graph_to_dict(graph))

    def decode(self, sample: Dict) -> Tuple[Dict[str, Any], float, bool]:
        try:
            result = self._builder.decode(sample, method="service")
        except ProblemError:
            # broken one-hots: no valid permutation in this sample
            return {"order": []}, float("inf"), False
        return {"order": list(result.order)}, float(result.cost), True

    def fallback(self, seed: int) -> Tuple[Dict[str, Any], float]:
        result = solve_greedy(self.graph)
        return {"order": list(result.order)}, float(result.cost)

    def validate(self, plan: Dict[str, Any]) -> bool:
        order = plan.get("order", ())
        try:
            self.graph.validate_permutation(list(order))
        except ProblemError:
            return False
        return True

    def cost_of(self, order) -> float:
        return cout_cost(self.graph, list(order))


# ----------------------------------------------------------------------
# problem-kind registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KindSpec:
    """Everything the service needs to know about one problem kind:
    the payload class requests must carry, its JSON round-trip, and the
    adapter that compiles/decodes it."""

    kind: str
    payload_cls: type
    to_dict: Callable[[Any], Dict[str, Any]]
    from_dict: Callable[[Dict[str, Any]], Any]
    adapter: Callable[[Any], Any]


_KINDS: Dict[str, KindSpec] = {}

#: kinds provided by packages we must not import eagerly (cycle /
#: startup-cost avoidance): first lookup triggers the import, whose
#: module-level ``register_problem_kind`` call fills the registry
_LAZY_KINDS: Dict[str, str] = {"sql": "repro.sql"}


def register_problem_kind(
    kind: str,
    payload_cls: type,
    to_dict: Callable[[Any], Dict[str, Any]],
    from_dict: Callable[[Dict[str, Any]], Any],
    adapter: Callable[[Any], Any],
    replace: bool = False,
) -> None:
    """Plug a new problem kind into the serving layer.

    After registration, :class:`~repro.service.request.OptimizationRequest`
    accepts ``kind`` with a ``payload_cls`` problem and the service
    compiles it through ``adapter`` (which must provide the
    ``compiled``/``decode``/``fallback``/``validate`` protocol plus a
    ``fingerprint`` attribute; every chain stage solves ``compiled()``).
    """
    if kind in _KINDS and not replace:
        raise ProblemError(f"problem kind {kind!r} already registered")
    _KINDS[kind] = KindSpec(
        kind=kind,
        payload_cls=payload_cls,
        to_dict=to_dict,
        from_dict=from_dict,
        adapter=adapter,
    )


def kind_spec(kind: str) -> KindSpec:
    """Resolve a kind, lazily importing its provider package if needed."""
    if kind not in _KINDS and kind in _LAZY_KINDS:
        importlib.import_module(_LAZY_KINDS[kind])
    try:
        return _KINDS[kind]
    except KeyError:
        raise ProblemError(
            f"unknown problem kind {kind!r}; valid: {', '.join(valid_kinds())}"
        ) from None


def valid_kinds() -> Tuple[str, ...]:
    """Every addressable kind, registered or lazily importable."""
    return tuple(sorted(set(_KINDS) | set(_LAZY_KINDS)))


def make_adapter(kind: str, problem) -> Any:
    """Adapter for a request's problem kind."""
    return kind_spec(kind).adapter(problem)


register_problem_kind(
    kind=MqoAdapter.kind,
    payload_cls=MqoProblem,
    to_dict=mqo_to_dict,
    from_dict=mqo_from_dict,
    adapter=MqoAdapter,
)
register_problem_kind(
    kind=JoinOrderAdapter.kind,
    payload_cls=QueryGraph,
    to_dict=query_graph_to_dict,
    from_dict=query_graph_from_dict,
    adapter=JoinOrderAdapter,
)
