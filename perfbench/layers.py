"""Traced replay: per-layer time of one workload's request path.

The timed run measures the serving stack as a black box.  This module
replays the same request sequence in-process through the same public
functions the stack calls, with timers around each layer:

* the HTTP path (``hot-http``) mirrors the gateway and the process
  pool: ``parse_json_body`` + ``optimize_request_from_body`` (gateway
  decode), ``coalesce_key``, the request's ``serialization`` round trip
  (pool IPC), ``OptimizationService.optimize``, the result's round trip
  and ``result_response`` + JSON (gateway encode);
* the in-process path is ``coalesce_key`` + ``optimize``.

Inside ``optimize`` the module functions ``make_adapter``,
``plan_query``, the MQO / join-order QUBO builders, ``compile_bqm`` and
``run_chain`` are wrapped for the traced call only.  Each request runs
once on an untraced service and once on a traced one, alternating which
goes first; the ratio of their totals is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import serialization
from repro.joinorder.direct_qubo import DirectJoinOrderQubo
from repro.mqo.qubo import MqoQuboBuilder
from repro.serialization import to_jsonable
from repro.server.models import optimize_request_from_body, parse_json_body, result_response
from repro.service import core, problems
from repro.service.core import OptimizationService, coalesce_key

from perfbench.workloads import DEADLINE_MS, Traffic, Workload

#: (owner, attribute, layer) of every function wrapped inside optimize()
_WRAPPED = (
    (core, "make_adapter", "problems.make_adapter_ms"),
    (MqoQuboBuilder, "build", "qubo.bqm_ms"),
    (DirectJoinOrderQubo, "build", "qubo.bqm_ms"),
    (problems, "compile_bqm", "qubo.compile_ms"),
    (core, "run_chain", "chain.run_ms"),
)
#: layers inside optimize() that do not nest in one another
_OPTIMIZE_CHILDREN = (
    "problems.make_adapter_ms", "qubo.bqm_ms", "qubo.compile_ms", "chain.run_ms",
)
LAYERS = (
    "gateway.decode_ms", "gateway.encode_ms",
    "serialization.request_ms", "serialization.result_ms",
    "core.coalesce_key_ms", "problems.make_adapter_ms", "sql.plan_query_ms",
    "qubo.bqm_ms", "qubo.compile_ms", "chain.run_ms",
    "service.optimize_ms", "service.self_ms",
)


def _timed(fn, layer: str, totals: Dict[str, float]):
    def wrapper(*args, **kwargs):
        began = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[layer] += time.perf_counter() - began

    return wrapper


@contextlib.contextmanager
def _wrapped(totals: Dict[str, float]) -> Iterator[None]:
    from repro.sql import pipeline

    targets = list(_WRAPPED) + [(pipeline, "plan_query", "sql.plan_query_ms")]
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
    try:
        for owner, name, layer in targets:
            setattr(owner, name, _timed(owner.__dict__[name], layer, totals))
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


class _Clock:
    """Accumulates step times; a no-op when ``totals`` is None."""

    def __init__(self, totals: Optional[Dict[str, float]]) -> None:
        self.totals = totals
        self.last = time.perf_counter()

    def lap(self, layer: str) -> None:
        if self.totals is not None:
            now = time.perf_counter()
            self.totals[layer] += now - self.last
            self.last = now


def _serve_http(service: OptimizationService, body: bytes, seed: int,
                totals: Optional[Dict[str, float]]):
    clock = _Clock(totals)
    request = optimize_request_from_body(parse_json_body(body), "trace", DEADLINE_MS)
    clock.lap("gateway.decode_ms")
    coalesce_key(request, seed, service.policy)
    clock.lap("core.coalesce_key_ms")
    request = serialization.loads(serialization.dumps(request, indent=None))
    clock.lap("serialization.request_ms")
    result = service.optimize(request)
    clock.lap("service.optimize_ms")
    result = serialization.loads(serialization.dumps(result, indent=None))
    clock.lap("serialization.result_ms")
    _status, payload = result_response(result)
    json.dumps(to_jsonable(payload)).encode("utf-8")
    clock.lap("gateway.encode_ms")
    return result


def _serve_inproc(service: OptimizationService, request, seed: int,
                  totals: Optional[Dict[str, float]]):
    clock = _Clock(totals)
    coalesce_key(request, seed, service.policy)
    clock.lap("core.coalesce_key_ms")
    result = service.optimize(request)
    clock.lap("service.optimize_ms")
    return result


def traced_replay(
    workload: Workload,
    traffic: Traffic,
    sequence: Sequence[int],
    seed: int,
    seconds: float,
) -> Tuple[Dict[str, Tuple[float, str, int]], List[str]]:
    """Replay ``sequence`` (template indices) for about ``seconds``.

    Returns ``{layer: (value, unit, requests)}`` — mean milliseconds per
    request for each layer, plus ``trace.overhead_pct`` — and the
    failures of any reply that did not pass the oracle.
    """
    http = workload.transport == "http"
    bodies: Dict[int, bytes] = {}

    def serve(service, index, totals):
        if http:
            body = bodies.get(index)
            if body is None:
                body = bodies[index] = traffic.body(index)
            return _serve_http(service, body, seed, totals)
        return _serve_inproc(service, traffic.requests[index], seed, totals)

    plain = OptimizationService(seed=seed)
    traced = OptimizationService(seed=seed)
    if workload.warm_templates:
        for template in traffic.templates:
            serve(plain, template.index, None)
            serve(traced, template.index, None)

    totals: Dict[str, float] = defaultdict(float)
    plain_s = traced_s = 0.0
    failures: List[str] = []
    count = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end and sequence:
        index = sequence[count % len(sequence)]
        for run_traced in ((False, True) if count % 2 == 0 else (True, False)):
            if run_traced:
                with _wrapped(totals):
                    began = time.perf_counter()
                    result = serve(traced, index, totals)
                    traced_s += time.perf_counter() - began
            else:
                began = time.perf_counter()
                result = serve(plain, index, None)
                plain_s += time.perf_counter() - began
            why = traffic.templates[index].check(result.plan, result.cost)
            if result.status != "ok" or why is not None:
                failures.append(f"traced replay of template {index}: {why or result.status}")
        count += 1

    totals["service.self_ms"] = totals["service.optimize_ms"] - sum(
        totals[layer] for layer in _OPTIMIZE_CHILDREN
    )
    metrics = {
        layer: (1e3 * totals[layer] / count if count else 0.0, "ms", count)
        for layer in LAYERS
    }
    overhead = 100.0 * (traced_s / plain_s - 1.0) if plain_s > 0 else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%", count)
    return metrics, failures
