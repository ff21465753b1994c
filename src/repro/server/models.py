"""HTTP request models and error envelopes for the gateway.

The gateway is layered routes → request-model → service: this module
is the middle layer, turning raw JSON bodies into validated
:class:`~repro.service.request.OptimizationRequest` objects and service
results back into response payloads.  All validation failures raise
:class:`ApiError`, which the transport layer renders as a JSON error
envelope::

    {"error": {"status": 400, "code": "bad_request", "message": "..."}}

``POST /optimize`` accepts two body shapes:

* the **full serialized form** — exactly what
  :func:`repro.service.request.request_to_dict` emits
  (``{"kind": "optimization_request", ...}``), so archived requests
  replay over HTTP unchanged;
* the **compact form** — ``{"kind": "mqo"|"join_order"|"sql",
  "problem": {...}, "deadline_ms": ..., "seed": ..., "policy": ...,
  "mode": ...}`` where ``problem`` is the problem kind's own
  serialization payload.

``POST /sql`` is the ergonomic front door: ``{"sql": "SELECT ...",
"catalog_scale": 0.01, ...}`` binds against the built-in TPC-H-style
catalog server-side, so clients ship only query text.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from repro.exceptions import ConfigurationError, ProblemError
from repro.service.chain import parse_policy
from repro.service.request import (
    OptimizationRequest,
    OptimizationResult,
    problem_from_dict,
    request_from_dict,
    result_to_dict,
)

__all__ = [
    "ApiError",
    "error_envelope",
    "optimize_request_from_body",
    "parse_json_body",
    "result_response",
    "sql_request_from_body",
]


class ApiError(Exception):
    """A client-visible failure with an HTTP status and stable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)


def error_envelope(status: int, code: str, message: str) -> Dict[str, Any]:
    return {"error": {"status": int(status), "code": str(code), "message": str(message)}}


def parse_json_body(body: bytes) -> Dict[str, Any]:
    """Body bytes → JSON object, or a 400 :class:`ApiError`."""
    if not body:
        raise ApiError(400, "empty_body", "request body must be a JSON object")
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(400, "malformed_json", f"body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ApiError(
            400, "malformed_json", f"expected a JSON object, got {type(data).__name__}"
        )
    return data


def optimize_request_from_body(
    data: Dict[str, Any], request_id: str, default_deadline_ms: float
) -> OptimizationRequest:
    """``POST /optimize`` body → validated request (full or compact form)."""
    try:
        if data.get("kind") == "optimization_request":
            return request_from_dict(data)
        kind = data.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ApiError(
                400, "missing_kind", "body needs a problem 'kind' (mqo, join_order, sql)"
            )
        problem_data = data.get("problem")
        if not isinstance(problem_data, dict):
            raise ApiError(
                400, "missing_problem", "body needs a 'problem' payload object"
            )
        policy = data.get("policy")
        return OptimizationRequest(
            request_id=str(data.get("request_id", request_id)),
            kind=kind,
            problem=problem_from_dict(kind, problem_data),
            deadline_ms=float(data.get("deadline_ms", default_deadline_ms)),
            seed=None if data.get("seed") is None else int(data["seed"]),
            policy=None if policy is None else parse_policy(policy),
            mode=str(data.get("mode", "first_valid")),
        )
    except (ProblemError, ConfigurationError) as exc:
        raise ApiError(400, "invalid_request", str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ApiError(400, "invalid_request", f"malformed request: {exc}") from exc


def sql_request_from_body(
    data: Dict[str, Any], request_id: str, default_deadline_ms: float
) -> OptimizationRequest:
    """``POST /sql`` body → a ``kind="sql"`` request bound server-side."""
    sql = data.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise ApiError(400, "missing_sql", "body needs a non-empty 'sql' string")
    from repro.sql import SqlQuery, tpch_catalog

    try:
        catalog = tpch_catalog(scale=float(data.get("catalog_scale", 0.01)))
        policy = data.get("policy")
        return OptimizationRequest(
            request_id=str(data.get("request_id", request_id)),
            kind="sql",
            problem=SqlQuery(sql=sql, catalog=catalog),
            deadline_ms=float(data.get("deadline_ms", default_deadline_ms)),
            seed=None if data.get("seed") is None else int(data["seed"]),
            policy=None if policy is None else parse_policy(policy),
            mode=str(data.get("mode", "first_valid")),
        )
    except (ProblemError, ConfigurationError) as exc:
        raise ApiError(400, "invalid_request", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ApiError(400, "invalid_request", f"malformed request: {exc}") from exc


def result_response(result: OptimizationResult) -> Tuple[int, Dict[str, Any]]:
    """Service result → (HTTP status, response payload).

    Admission-control rejections surface as 503 with the saturation
    reason — the scheduler's backpressure signal, telling well-behaved
    clients to back off and retry.
    """
    if result.status == "rejected":
        payload = error_envelope(
            503, "queue_full", result.reject_reason or "admission control rejected"
        )
        payload["request_id"] = result.request_id
        return 503, payload
    return 200, result_to_dict(result)
