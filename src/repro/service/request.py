"""Request/response model of the optimization service.

An :class:`OptimizationRequest` carries one problem instance (MQO or
join ordering), a wall-clock deadline, an optional seed and optional
solver-policy hints; an :class:`OptimizationResult` carries the
best-effort plan, which fallback stage produced it, whether the
deadline was hit and the full per-stage trace.  Both round-trip
through :mod:`repro.serialization` (payload kinds
``optimization_request`` / ``optimization_result``), so requests can
be shipped as JSON files to ``python -m repro optimize`` and responses
archived next to experiment results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import ProblemError
from repro.joinorder.query_graph import QueryGraph
from repro.mqo.problem import MqoProblem
from repro.serialization import _FORMAT, _check, register_serializer, to_jsonable
from repro.service.chain import StageSpec, parse_policy
from repro.service.problems import kind_spec

KIND_MQO = "mqo"
KIND_JOIN_ORDER = "join_order"
KIND_SQL = "sql"

#: chain modes — ``first_valid`` stops at the first stage that yields a
#: valid plan (classic fallback), ``exhaust`` runs every stage that
#: fits the deadline and keeps the best valid plan.
VALID_MODES = ("first_valid", "exhaust")

#: MqoProblem, QueryGraph, or any payload of a registered problem kind
#: (e.g. :class:`repro.sql.SqlQuery` for ``kind="sql"``)
ProblemPayload = Union[MqoProblem, QueryGraph, Any]


@dataclass(frozen=True)
class OptimizationRequest:
    """One optimization request: a problem plus serving constraints."""

    request_id: str
    kind: str
    problem: ProblemPayload
    #: wall-clock budget in milliseconds; zero/negative means "no time
    #: at all" and is served by the guaranteed classical fallback
    deadline_ms: float = 200.0
    #: root seed for this request (service default when ``None``)
    seed: Optional[int] = None
    #: solver policy override (service default chain when ``None``)
    policy: Optional[Tuple[StageSpec, ...]] = None
    mode: str = "first_valid"

    def __post_init__(self) -> None:
        spec = kind_spec(self.kind)  # raises ProblemError for unknown kinds
        if not isinstance(self.problem, spec.payload_cls):
            raise ProblemError(
                f"kind {self.kind!r} expects a {spec.payload_cls.__name__} "
                f"payload, got {type(self.problem).__name__}"
            )
        if self.mode not in VALID_MODES:
            raise ProblemError(
                f"unknown chain mode {self.mode!r}; valid: {', '.join(VALID_MODES)}"
            )

    def with_id(self, request_id: str) -> "OptimizationRequest":
        return replace(self, request_id=request_id)


@dataclass(frozen=True)
class OptimizationResult:
    """The service's answer: a best-effort plan plus serving metadata."""

    request_id: str
    kind: str
    #: ``ok`` or ``rejected`` (admission control)
    status: str
    #: ``{"selected_plans": [...]}`` (MQO) or ``{"order": [...]}`` (join)
    plan: Dict[str, Any] = field(default_factory=dict)
    cost: float = float("inf")
    energy: Optional[float] = None
    valid: bool = False
    #: name of the fallback stage that produced the returned plan
    served_by: str = ""
    deadline_exceeded: bool = False
    cache_hit: bool = False
    elapsed_ms: float = 0.0
    #: one entry per stage that ran: name, seconds, energy, cost, valid
    stage_trace: Tuple[Dict[str, Any], ...] = ()
    reject_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def with_request_id(self, request_id: str) -> "OptimizationResult":
        """The same result re-addressed to another request.

        This is how coalesced duplicates are answered: every follower of
        an in-flight solve receives the primary's result verbatim — the
        plan, cost, energy, validity, serving stage and trace are all
        field-identical — under its own request id.
        """
        return replace(self, request_id=request_id)


def problem_to_dict(kind: str, problem: ProblemPayload) -> Dict[str, Any]:
    return kind_spec(kind).to_dict(problem)


def problem_from_dict(kind: str, data: Dict[str, Any]) -> ProblemPayload:
    return kind_spec(kind).from_dict(data)


# ----------------------------------------------------------------------
# JSON round trips (registered with repro.serialization)
# ----------------------------------------------------------------------
def request_to_dict(request: OptimizationRequest) -> Dict[str, Any]:
    """Request → plain dictionary."""
    data: Dict[str, Any] = {
        "format": _FORMAT,
        "kind": "optimization_request",
        "request_id": request.request_id,
        "problem_kind": request.kind,
        "problem": problem_to_dict(request.kind, request.problem),
        "deadline_ms": request.deadline_ms,
        "seed": request.seed,
        "mode": request.mode,
    }
    if request.policy is not None:
        data["policy"] = [stage.to_dict() for stage in request.policy]
    return data


def request_from_dict(data: Dict[str, Any]) -> OptimizationRequest:
    """Dictionary → request (validates on construction)."""
    _check(data, "optimization_request")
    policy = data.get("policy")
    return OptimizationRequest(
        request_id=str(data["request_id"]),
        kind=str(data["problem_kind"]),
        problem=problem_from_dict(str(data["problem_kind"]), data["problem"]),
        deadline_ms=float(data.get("deadline_ms", 200.0)),
        seed=None if data.get("seed") is None else int(data["seed"]),
        policy=None if policy is None else parse_policy(policy),
        mode=str(data.get("mode", "first_valid")),
    )


def result_to_dict(result: OptimizationResult) -> Dict[str, Any]:
    """Result → plain dictionary."""
    return {
        "format": _FORMAT,
        "kind": "optimization_result",
        "request_id": result.request_id,
        "problem_kind": result.kind,
        "status": result.status,
        "plan": to_jsonable(result.plan),
        "cost": result.cost,
        "energy": result.energy,
        "valid": result.valid,
        "served_by": result.served_by,
        "deadline_exceeded": result.deadline_exceeded,
        "cache_hit": result.cache_hit,
        "elapsed_ms": result.elapsed_ms,
        "stage_trace": [to_jsonable(entry) for entry in result.stage_trace],
        "reject_reason": result.reject_reason,
    }


def result_from_dict(data: Dict[str, Any]) -> OptimizationResult:
    """Dictionary → result."""
    _check(data, "optimization_result")
    return OptimizationResult(
        request_id=str(data["request_id"]),
        kind=str(data["problem_kind"]),
        status=str(data["status"]),
        plan=dict(data.get("plan", {})),
        cost=float(data.get("cost", float("inf"))),
        energy=None if data.get("energy") is None else float(data["energy"]),
        valid=bool(data.get("valid", False)),
        served_by=str(data.get("served_by", "")),
        deadline_exceeded=bool(data.get("deadline_exceeded", False)),
        cache_hit=bool(data.get("cache_hit", False)),
        elapsed_ms=float(data.get("elapsed_ms", 0.0)),
        stage_trace=tuple(dict(entry) for entry in data.get("stage_trace", [])),
        reject_reason=data.get("reject_reason"),
    )


register_serializer(
    OptimizationRequest, "optimization_request", request_to_dict, request_from_dict
)
register_serializer(
    OptimizationResult, "optimization_result", result_to_dict, result_from_dict
)
