"""Tests for the stdlib HTTP gateway (repro.server.gateway/routes/models).

The gateway runs on a background thread against the cheap thread-pool
backend — every HTTP behavior under test (routing, validation, error
envelopes, backpressure, graceful drain) is backend-independent, and
:mod:`tests.test_server_pool` already proves the backends agree on
results.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.mqo.generator import random_mqo_problem
from repro.server import ServiceConfig, make_scheduler, serve_in_background
from repro.service import request_to_dict
from repro.service.request import OptimizationRequest, problem_to_dict


def call(url, body=None, method=None, timeout=60):
    """One HTTP exchange; returns (status, parsed JSON body)."""
    data = body if isinstance(body, (bytes, type(None))) else json.dumps(body).encode()
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


@pytest.fixture(scope="module")
def gateway():
    scheduler = make_scheduler(
        "thread", config=ServiceConfig(seed=5), workers=2, warmup=[]
    )
    with serve_in_background(scheduler, default_deadline_ms=500.0) as handle:
        yield handle


def compact_mqo_body(seed=5, **extra):
    body = {
        "kind": "mqo",
        "problem": problem_to_dict("mqo", random_mqo_problem(3, 2, seed=seed)),
        "deadline_ms": 500.0,
    }
    body.update(extra)
    return body


class TestRouting:
    def test_unknown_path_404(self, gateway):
        status, body = call(f"{gateway.url}/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_405_lists_allowed(self, gateway):
        status, body = call(f"{gateway.url}/optimize")  # GET on a POST route
        assert status == 405
        assert "POST" in body["error"]["message"]

    def test_healthz_reports_backend(self, gateway):
        status, body = call(f"{gateway.url}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["backend"] == "thread"
        assert body["workers"] == 2

    def test_stats_shape(self, gateway):
        status, body = call(f"{gateway.url}/stats")
        assert status == 200
        assert {"counters", "histograms", "cache", "scheduler"} <= set(body)


class TestValidation:
    def test_empty_body_400(self, gateway):
        status, body = call(f"{gateway.url}/optimize", body=b"", method="POST")
        assert status == 400
        assert body["error"]["code"] == "empty_body"

    def test_malformed_json_400(self, gateway):
        status, body = call(f"{gateway.url}/optimize", body=b"{not json")
        assert status == 400
        assert body["error"]["code"] == "malformed_json"

    def test_non_object_json_400(self, gateway):
        status, body = call(f"{gateway.url}/optimize", body=b"[1, 2]")
        assert status == 400
        assert body["error"]["code"] == "malformed_json"

    def test_missing_kind_400(self, gateway):
        status, body = call(f"{gateway.url}/optimize", body={"problem": {}})
        assert status == 400
        assert body["error"]["code"] == "missing_kind"

    def test_unknown_kind_400(self, gateway):
        status, body = call(
            f"{gateway.url}/optimize", body=compact_mqo_body(kind="teleport")
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_sql_without_text_400(self, gateway):
        status, body = call(f"{gateway.url}/sql", body={"catalog_scale": 0.01})
        assert status == 400
        assert body["error"]["code"] == "missing_sql"

    def test_bad_policy_400(self, gateway):
        status, body = call(
            f"{gateway.url}/optimize", body=compact_mqo_body(policy="")
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"


class TestServing:
    def test_optimize_compact_form(self, gateway):
        status, body = call(f"{gateway.url}/optimize", body=compact_mqo_body())
        assert status == 200
        assert body["status"] == "ok"
        assert body["valid"] is True
        assert body["kind"] == "optimization_result"

    def test_optimize_full_serialized_form(self, gateway):
        request = OptimizationRequest(
            request_id="replayed-001",
            kind="mqo",
            problem=random_mqo_problem(3, 2, seed=5),
            deadline_ms=500.0,
        )
        status, body = call(
            f"{gateway.url}/optimize", body=request_to_dict(request)
        )
        assert status == 200
        assert body["request_id"] == "replayed-001"
        assert body["valid"] is True

    def test_sql_front_door(self, gateway):
        status, body = call(
            f"{gateway.url}/sql",
            body={
                "sql": "SELECT * FROM lineitem, orders "
                "WHERE lineitem.l_orderkey = orders.o_orderkey",
                "deadline_ms": 500.0,
            },
        )
        assert status == 200
        assert body["valid"] is True
        assert body["problem_kind"] == "sql"

    def test_compact_and_full_forms_agree(self, gateway):
        _, compact = call(f"{gateway.url}/optimize", body=compact_mqo_body(seed=5))
        request = OptimizationRequest(
            request_id="x",
            kind="mqo",
            problem=random_mqo_problem(3, 2, seed=5),
            deadline_ms=500.0,
        )
        _, full = call(f"{gateway.url}/optimize", body=request_to_dict(request))
        assert compact["plan"] == full["plan"]
        assert compact["cost"] == full["cost"]
        assert compact["energy"] == full["energy"]


class TestBackpressure:
    def test_queue_full_503(self):
        scheduler = make_scheduler(
            "thread",
            config=ServiceConfig(seed=5),
            workers=1,
            queue_limit=1,
            coalesce=False,
            warmup=[],
        )
        with serve_in_background(scheduler, default_deadline_ms=500.0) as handle:
            url = f"{handle.url}/optimize"
            # distinct slow-ish problems posted concurrently: one is in
            # flight, the surplus must bounce off admission control
            responses = []
            lock = threading.Lock()

            def post(seed):
                body = compact_mqo_body(seed=seed)
                body["problem"] = problem_to_dict(
                    "mqo", random_mqo_problem(6, 4, seed=seed)
                )
                response = call(url, body=body)
                with lock:
                    responses.append(response)

            threads = [
                threading.Thread(target=post, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        statuses = sorted(status for status, _body in responses)
        assert 200 in statuses
        assert 503 in statuses
        rejected = [body for status, body in responses if status == 503]
        assert all(body["error"]["code"] == "queue_full" for body in rejected)
        assert all("saturated" in body["error"]["message"] for body in rejected)
        assert all(body["request_id"] for body in rejected)

    def test_coalesced_duplicates_identical_fields_over_http(self):
        scheduler = make_scheduler(
            "thread", config=ServiceConfig(seed=5), workers=2, warmup=[]
        )
        # hold the primary solve until all three duplicates have
        # attached to it, so the overlap never depends on timing
        release = threading.Event()
        solve = scheduler.service.optimize

        def held_solve(request):
            release.wait(timeout=60)
            return solve(request)

        scheduler.service.optimize = held_solve

        def coalesce_hits():
            return scheduler.stats()["scheduler"]["coalesce"]["hits"]

        with serve_in_background(scheduler, default_deadline_ms=500.0) as handle:
            url = f"{handle.url}/optimize"
            body = compact_mqo_body(seed=77)
            responses = []
            lock = threading.Lock()

            def post():
                response = call(url, body=body)
                with lock:
                    responses.append(response)

            threads = [threading.Thread(target=post) for _ in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            while coalesce_hits() < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join()
            stats = scheduler.stats()
        assert all(status == 200 for status, _body in responses)
        plans = {json.dumps(body["plan"], sort_keys=True) for _s, body in responses}
        costs = {body["cost"] for _s, body in responses}
        assert len(plans) == 1 and len(costs) == 1
        # every duplicate attached to the held in-flight solve
        assert stats["scheduler"]["coalesce"]["hits"] == 3
        # each response still carries its own request id
        ids = {body["request_id"] for _s, body in responses}
        assert len(ids) == 4


class TestGracefulShutdown:
    def test_in_flight_request_drains_before_stop(self):
        scheduler = make_scheduler(
            "thread", config=ServiceConfig(seed=5), workers=1, warmup=[]
        )
        handle = serve_in_background(scheduler, default_deadline_ms=500.0)
        url = f"{handle.url}/optimize"
        outcome = {}

        def post():
            outcome["response"] = call(
                url, body=compact_mqo_body(seed=123), timeout=30
            )

        poster = threading.Thread(target=post)
        poster.start()
        time.sleep(0.01)  # let the request reach the gateway
        handle.stop()  # must drain, not sever, the in-flight request
        poster.join(timeout=30)
        assert not poster.is_alive()
        status, body = outcome["response"]
        assert status == 200
        assert body["valid"] is True

    def test_stopped_gateway_refuses_connections(self):
        scheduler = make_scheduler(
            "thread", config=ServiceConfig(seed=5), workers=1, warmup=[]
        )
        handle = serve_in_background(scheduler)
        handle.stop()
        with pytest.raises(OSError):
            call(f"{handle.url}/healthz", timeout=2)


class TestRoutedGateway:
    """Gateway stress under deadline-aware routing.

    Concurrent mixed-kind bursts with duplicate payloads must keep the
    serving invariants intact when every request additionally walks the
    router: duplicates still coalesce (the routed coalesce key marks,
    but does not break, deduplication), admission control still sheds
    load with 503s, and the merged /stats routing section stays
    arithmetically consistent.
    """

    def _burst(self, url, bodies):
        responses = []
        lock = threading.Lock()

        def post(body):
            response = call(url, body=body)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=post, args=(b,)) for b in bodies]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return responses

    def test_mixed_burst_with_duplicates_coalesces_and_reports(self):
        from repro.joinorder.generators import star_query

        scheduler = make_scheduler(
            "thread",
            config=ServiceConfig(seed=5, routing=True),
            workers=2,
            warmup=[],
        )
        with serve_in_background(scheduler, default_deadline_ms=500.0) as handle:
            url = f"{handle.url}/optimize"
            mqo_body = compact_mqo_body(seed=91)
            join_body = {
                "kind": "join_order",
                "problem": problem_to_dict("join_order", star_query(5, seed=91)),
                "deadline_ms": 500.0,
            }
            # duplicates of both kinds interleaved in one burst
            responses = self._burst(url, [mqo_body, join_body] * 3)
            status, stats = call(f"{handle.url}/stats")
        assert status == 200
        assert all(s == 200 for s, _b in responses)
        # duplicates of the same content must agree on the plan (the
        # response envelope's "kind" is the serialization marker, so
        # group by the plan shape: MQO selects plans, joins order)
        by_shape = {}
        for _s, body in responses:
            shape = "mqo" if "selected_plans" in body["plan"] else "join"
            by_shape.setdefault(shape, set()).add(
                json.dumps(body["plan"], sort_keys=True)
            )
        assert set(by_shape) == {"mqo", "join"}
        assert all(len(plans) == 1 for plans in by_shape.values())
        coalesce = stats["scheduler"]["coalesce"]
        assert coalesce["hits"] + stats["counters"]["requests_total"] == 6
        routing = stats["routing"]
        assert routing["enabled"]
        assert 0 < routing["requests"] <= 6
        assert routing["deadline_miss"] <= routing["requests"]
        assert 0.0 <= routing["deadline_miss_rate"] <= 1.0
        assert set(routing["candidates"]) == {"hybrid", "tabu", "sa", "greedy"}

    def test_backpressure_503_still_enforced_under_routing(self):
        scheduler = make_scheduler(
            "thread",
            config=ServiceConfig(seed=5, routing=True),
            workers=1,
            queue_limit=1,
            coalesce=False,
            warmup=[],
        )
        with serve_in_background(scheduler, default_deadline_ms=500.0) as handle:
            url = f"{handle.url}/optimize"
            bodies = []
            for seed in range(8):
                body = compact_mqo_body(seed=seed)
                body["problem"] = problem_to_dict(
                    "mqo", random_mqo_problem(6, 4, seed=seed)
                )
                bodies.append(body)
            responses = self._burst(url, bodies)
        statuses = sorted(status for status, _body in responses)
        assert 200 in statuses
        assert 503 in statuses
        assert all(
            body["error"]["code"] == "queue_full"
            for status, body in responses
            if status == 503
        )
