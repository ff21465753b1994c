"""Tests for the process-pool serving backend (repro.server.pool).

The load-bearing property is the determinism contract: because solve
seeds derive from problem content (not worker identity or arrival
order), the same request stream must produce bit-identical plans and
energies on the thread backend, on a one-process pool, and on a
multi-process pool.  Pool startup forks real worker processes, so the
expensive schedulers are module-scoped fixtures serving one shared
workload.
"""

import json
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.exceptions import ConfigurationError, SolverError, WorkerCrashError
from repro.mqo.generator import random_mqo_problem
from repro.replay import replay_stream
from repro.serialization import to_jsonable
from repro.server import (
    ProcessPoolScheduler,
    ServiceConfig,
    default_warmup_requests,
    make_scheduler,
)
from repro.service import OptimizationRequest
from repro.service.core import RESULT_CAPACITY, coalesce_key
from repro.service.request import problem_to_dict

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

WORKLOAD_SEED = 31


def distinct_stream(count, seed, **kwargs):
    """``count`` requests with pairwise-distinct problems."""
    requests = list(
        replay_stream(count, seed=seed, unique=10**6, zipf_s=0.0, **kwargs)
    )
    contents = {
        json.dumps(to_jsonable(problem_to_dict(r.kind, r.problem)), sort_keys=True)
        for r in requests
    }
    assert len(contents) == count
    return requests


@pytest.fixture(scope="module")
def workload():
    # duplicates exercise coalescing; the sql share exercises the
    # lazy-kind serializer registration inside fresh worker processes
    requests = list(
        replay_stream(10, seed=WORKLOAD_SEED, unique=8, deadline_ms=500.0, sql_fraction=0.2)
    )
    assert len({id(r.problem) for r in requests}) < len(requests)
    assert {r.kind for r in requests} == {"mqo", "join_order", "sql"}
    return requests


@pytest.fixture(scope="module")
def pool_results(workload):
    """Workload served once per configuration: (results, final stats)."""
    served = {}
    for label, backend, workers in (
        ("thread-2", "thread", 2),
        ("process-1", "process", 1),
        ("process-3", "process", 3),
    ):
        with make_scheduler(
            backend, config=ServiceConfig(seed=WORKLOAD_SEED), workers=workers
        ) as scheduler:
            results = scheduler.run(workload)
            stats = scheduler.stats()
        served[label] = (results, stats)
    return served


def signature(result):
    """Everything a client can observe about a plan, minus timing."""
    return (
        result.request_id,
        result.kind,
        result.status,
        to_jsonable(result.plan),
        result.cost,
        result.energy,
        result.valid,
        result.served_by,
    )


class TestCrossProcessDeterminism:
    def test_one_vs_many_workers_bit_identical(self, pool_results):
        one, _ = pool_results["process-1"]
        many, _ = pool_results["process-3"]
        assert [signature(r) for r in one] == [signature(r) for r in many]

    def test_process_matches_thread_backend(self, pool_results):
        threaded, _ = pool_results["thread-2"]
        pooled, _ = pool_results["process-3"]
        assert [signature(r) for r in threaded] == [signature(r) for r in pooled]

    def test_every_result_valid_and_ordered(self, pool_results, workload):
        for results, _stats in pool_results.values():
            assert [r.request_id for r in results] == [
                q.request_id for q in workload
            ]
            assert all(r.valid for r in results)


class TestMergedStats:
    def test_counters_cover_all_solved_requests(self, pool_results, workload):
        _, stats = pool_results["process-3"]
        coalesced = stats["scheduler"]["coalesce"]["hits"]
        assert coalesced > 0  # the workload's duplicates must coalesce
        assert stats["counters"]["requests_total"] == len(workload) - coalesced
        assert (
            stats["histograms"]["latency_ms"]["count"]
            == stats["counters"]["requests_ok"]
        )

    def test_per_worker_section_lists_every_worker(self, pool_results, workload):
        _, stats = pool_results["process-3"]
        section = stats["scheduler"]
        assert section["backend"] == "process"
        assert section["workers"] == 3
        assert section["start_method"] in ("fork", "spawn", "forkserver")
        per_worker = section["per_worker"]
        assert len(per_worker) == 3
        assert all(entry["pid"] for entry in per_worker)
        total_ok = sum(entry["requests_ok"] for entry in per_worker)
        # parent-side cache hits never reach a worker
        parent_hits = section["result_cache"]["hits"]
        assert total_ok + parent_hits == stats["counters"]["requests_ok"]

    def test_worker_counters_start_clean_after_warmup(self, pool_results):
        # warmup solves run before ready; they must not pollute the report
        _, stats = pool_results["process-1"]
        kinds = {
            key for key in stats["counters"] if key.startswith("requests_kind.")
        }
        assert "requests_kind.mqo" in kinds
        assert stats["counters"]["requests_total"] <= 10

    def test_stats_available_after_shutdown(self, pool_results, workload):
        # pool_results captured stats() inside the context manager; a
        # post-shutdown call must replay the final snapshot, not hang
        scheduler = ProcessPoolScheduler(
            config=ServiceConfig(seed=1), workers=1, warmup=[]
        )
        scheduler.run(workload[:2])
        scheduler.shutdown()
        scheduler.shutdown()  # idempotent
        stats = scheduler.stats()
        assert stats["counters"]["requests_total"] == 2


def mqo_request(request_id, seed, deadline_ms=500.0, size=(3, 2)):
    return OptimizationRequest(
        request_id=request_id,
        kind="mqo",
        problem=random_mqo_problem(*size, seed=seed),
        deadline_ms=deadline_ms,
    )


def served(scheduler, request):
    return scheduler.submit(request).result(timeout=120.0)


class ResultCacheContract:
    """Repeats of a finished request are answered by the scheduler.

    Shared by both backends (each ``Test*`` subclass pins ``backend``).
    The scheduler holds the only result cache: it stores deterministic
    answers (``ok``, untruncated, positive deadline) under the coalesce
    key, and a hit must be indistinguishable from the stored answer
    apart from ``request_id``, ``elapsed_ms`` and ``cache_hit``.
    """

    backend = ""

    def scheduler(self, config=None, workers=1, **kwargs):
        config = config if config is not None else ServiceConfig(seed=WORKLOAD_SEED)
        return make_scheduler(
            self.backend, config=config, workers=workers, warmup=[], **kwargs
        )

    def service_ok(self, stats):
        """``requests_ok`` counted inside each service (not the scheduler)."""
        raise NotImplementedError

    def test_repeat_after_completion_served_by_parent(self):
        request = mqo_request("repeat", seed=401)
        with self.scheduler() as scheduler:
            first = served(scheduler, request)
            again = served(scheduler, request)
            stats = scheduler.stats()
        assert first.status == "ok" and not first.cache_hit
        assert again.cache_hit
        assert signature(again) == signature(first)
        assert stats["scheduler"]["result_cache"] == {
            "size": 1,
            "capacity": RESULT_CAPACITY,
            "hits": 1,
        }
        # the scheduler hit is counted like a service hit, the miss only once
        counters = stats["counters"]
        assert counters["cache.result_hits"] == 1
        assert counters["cache.result_misses"] == 1
        assert counters["requests_ok"] == counters["requests_total"] == 2
        assert counters["requests_kind.mqo"] == 2
        assert counters[f"served_by.{first.served_by}"] == 2
        assert stats["histograms"]["latency_ms"]["count"] == 2
        assert self.service_ok(stats) == [1]

    def test_parent_hit_matches_worker_hit_field_for_field(self):
        # the coalesce key holds the deadline but the solve seed does
        # not: a new deadline misses and re-solves to the same answer,
        # the original deadline then hits the stored worker answer
        request = mqo_request("fields", seed=402)
        with self.scheduler() as scheduler:
            worker_answer = served(scheduler, request)
            resolved = served(scheduler, replace(request, deadline_ms=600.0))
            parent_hit = served(scheduler, request)
            stats = scheduler.stats()
        assert stats["scheduler"]["result_cache"]["hits"] == 1
        assert not resolved.cache_hit and parent_hit.cache_hit
        assert (resolved.plan, resolved.cost, resolved.served_by) == (
            worker_answer.plan,
            worker_answer.cost,
            worker_answer.served_by,
        )
        assert self.service_ok(stats) == [2]
        assert replace(parent_hit, elapsed_ms=0.0) == replace(
            worker_answer, cache_hit=True, elapsed_ms=0.0
        )

    def test_hit_gets_its_own_plan_copy(self):
        request = mqo_request("copy", seed=403)
        with self.scheduler() as scheduler:
            first = served(scheduler, request)
            first.plan.clear()
            again = served(scheduler, request.with_id("copy-2"))
            again.plan.clear()
            third = served(scheduler, request.with_id("copy-3"))
        assert third.cache_hit and third.plan

    def test_deadline_truncated_result_not_stored(self):
        request = mqo_request("truncated", seed=404, deadline_ms=0.01, size=(12, 4))
        with self.scheduler() as scheduler:
            first = served(scheduler, request)
            again = served(scheduler, request)
            section = scheduler.stats()["scheduler"]["result_cache"]
        assert first.deadline_exceeded
        assert not again.cache_hit  # reached the service, which re-solved
        assert section["size"] == 0 and section["hits"] == 0

    def test_rejected_result_not_stored(self):
        # a generous deadline keeps the slow solve untruncated (stored)
        slow = mqo_request("slow", seed=405, deadline_ms=60_000.0, size=(10, 4))
        bounced = mqo_request("bounced", seed=406)
        with self.scheduler(queue_limit=1) as scheduler:
            in_flight = scheduler.submit(slow)
            rejected = served(scheduler, bounced)
            in_flight.result(timeout=120.0)
            retried = served(scheduler, bounced)
            section = scheduler.stats()["scheduler"]["result_cache"]
        assert rejected.status == "rejected"
        assert retried.status == "ok" and not retried.cache_hit
        assert section["size"] == 2 and section["hits"] == 0

    def test_cached_repeat_after_shutdown_raises(self):
        request = mqo_request("closed", seed=408)
        scheduler = self.scheduler()
        served(scheduler, request)
        scheduler.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            scheduler.submit(request)

    def test_capacity_is_result_capacity_with_lru_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.service.core.RESULT_CAPACITY", 2)
        a, b, c = (mqo_request(name, seed=410 + i) for i, name in enumerate("abc"))
        with self.scheduler() as scheduler:
            for request in (a, b, a, c):  # a refreshed, so c evicts b
                served(scheduler, request)
            a_again = served(scheduler, a)
            served(scheduler, b)
            stats = scheduler.stats()
        assert a_again.cache_hit
        assert stats["scheduler"]["result_cache"] == {
            "size": 2,
            "capacity": 2,
            "hits": 2,
        }
        # a, b, c and the evicted b's repeat all reached the service
        assert self.service_ok(stats) == [4]

    def test_concurrent_repeats_keep_counts_exact(self):
        # client threads race the stores and each other's lookups; a
        # lost update would break the counter identities
        problems = [mqo_request(f"p{index}", seed=430 + index) for index in range(4)]
        results = []
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self.scheduler(workers=2) as scheduler:

                def client(index):
                    for step in range(25):
                        request = problems[(index + step) % len(problems)]
                        result = served(scheduler, request.with_id(f"c{index}-{step}"))
                        with lock:
                            results.append((request.request_id, result))

                threads = [
                    threading.Thread(target=client, args=(index,)) for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = scheduler.stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 150
        answers = {}
        for problem_id, result in results:
            assert result.status == "ok" and result.valid
            answers.setdefault(problem_id, set()).add(repr(signature(result)[3:]))
        assert all(len(variants) == 1 for variants in answers.values())
        section = stats["scheduler"]
        served_ok = stats["counters"]["requests_ok"]
        parent_hits = section["result_cache"]["hits"]
        worker_ok = sum(self.service_ok(stats))
        assert parent_hits > 0
        assert worker_ok + parent_hits == served_ok
        assert served_ok + section["coalesce"]["hits"] == len(results)
        assert section["result_cache"]["size"] == len(problems)

    def test_coalesced_follower_is_not_a_result_miss(self):
        # a generous deadline keeps the slow primary in flight while its
        # duplicate is submitted, so the duplicate coalesces
        slow = mqo_request("primary", seed=440, deadline_ms=60_000.0, size=(10, 4))
        other = mqo_request("other", seed=441)
        with self.scheduler() as scheduler:
            futures = [scheduler.submit(r) for r in (slow, slow.with_id("follower"), other)]
            results = [future.result(timeout=120.0) for future in futures]
            again = served(scheduler, other.with_id("other-again"))
            stats = scheduler.stats()
        assert all(r.status == "ok" for r in results) and again.cache_hit
        counters, section = stats["counters"], stats["scheduler"]
        assert section["coalesce"]["hits"] == 1
        # misses count dispatched primaries only: slow and other
        assert counters["cache.result_misses"] == section["coalesce"]["misses"] == 2
        assert counters["cache.result_hits"] == section["result_cache"]["hits"] == 1
        assert self.service_ok(stats) == [2]

    def test_each_answer_stored_once(self):
        requests = distinct_stream(5, seed=WORKLOAD_SEED + 3, deadline_ms=500.0)
        with self.scheduler() as scheduler:
            scheduler.run(requests)
            stats = scheduler.stats()
        assert "cache" not in stats
        assert stats["scheduler"]["result_cache"]["size"] == len(requests)


class TestParentResultCache(ResultCacheContract):
    """The process pool answers repeats in the parent, without IPC."""

    backend = "process"

    def service_ok(self, stats):
        return [worker["requests_ok"] for worker in stats["scheduler"]["per_worker"]]

    def test_errored_result_not_stored(self):
        from repro.sql import SqlQuery, tpch_catalog

        broken = OptimizationRequest(
            request_id="broken",
            kind="sql",
            problem=SqlQuery(sql="SELECT * FROM nope", catalog=tpch_catalog()),
            deadline_ms=500.0,
        )
        with self.scheduler() as scheduler:
            for _ in range(2):
                with pytest.raises(SolverError):
                    served(scheduler, broken)
            section = scheduler.stats()["scheduler"]["result_cache"]
        assert section["size"] == 0 and section["hits"] == 0

    def test_routed_pool_keeps_routed_key_namespace(self):
        request = mqo_request("routed", seed=420)
        config = ServiceConfig(seed=WORKLOAD_SEED, routing=True)
        with self.scheduler(config) as scheduler:
            first = served(scheduler, request)
            again = served(scheduler, request)
            keys = list(scheduler._results.entries)
        assert keys == [
            coalesce_key(
                request, config.seed, config.effective_policy(), routed=True
            )
        ]
        assert "|routed|" in keys[0]
        assert again.cache_hit and signature(again) == signature(first)


class TestThreadResultCache(ResultCacheContract):
    """The thread backend answers repeats without a pool thread."""

    backend = "thread"

    def service_ok(self, stats):
        counters = stats["counters"]
        return [counters["requests_ok"] - stats["scheduler"]["result_cache"]["hits"]]

    def test_repeat_right_after_result_skips_make_adapter(self, monkeypatch):
        # the answer is stored before the client's future resolves, so a
        # repeat sent the moment .result() returns never rebuilds the
        # adapter.  A slowed store widens the window a store-after-resolve
        # race would need; many rounds give it its chance.
        from repro.service import core

        calls = []
        build = core.make_adapter
        remember = core.SchedulerBase._remember

        def counting(kind, problem):
            calls.append(kind)
            return build(kind, problem)

        def slow_remember(self, *args):
            time.sleep(0.002)
            return remember(self, *args)

        monkeypatch.setattr(core, "make_adapter", counting)
        monkeypatch.setattr(core.SchedulerBase, "_remember", slow_remember)
        with self.scheduler() as scheduler:
            for index in range(50):
                request = mqo_request(f"race-{index}", seed=500 + index, size=(2, 2))
                assert not served(scheduler, request).cache_hit
                before = len(calls)
                again = served(scheduler, request.with_id(f"again-{index}"))
                assert again.cache_hit and len(calls) == before, index


class TestAdmissionControl:
    def test_queue_limit_rejections_counted_parent_side(self):
        workload = distinct_stream(
            10, seed=WORKLOAD_SEED, deadline_ms=500.0, sql_fraction=0.2
        )
        with ProcessPoolScheduler(
            config=ServiceConfig(seed=WORKLOAD_SEED),
            workers=1,
            queue_limit=1,
            warmup=[],
        ) as scheduler:
            futures = [scheduler.submit(request) for request in workload]
            results = [future.result() for future in futures]
            stats = scheduler.stats()
        rejected = [r for r in results if r.status == "rejected"]
        assert rejected, "queue_limit=1 over 10 rapid submits must reject"
        assert all("saturated" in (r.reject_reason or "") for r in rejected)
        assert stats["counters"]["requests_rejected"] == len(rejected)
        assert stats["counters"]["requests_total"] == len(workload)


class TestServiceConfig:
    def test_round_trip(self):
        from repro.service import parse_policy

        config = ServiceConfig(policy=parse_policy("tabu,greedy"), seed=9)
        assert ServiceConfig.from_dict(config.to_dict()) == config
        # a config written before compiled_capacity and result_capacity
        # became constants
        old = dict(config.to_dict(), compiled_capacity=256, result_capacity=1024)
        assert ServiceConfig.from_dict(old) == config

    def test_default_warmup_covers_registered_kinds(self):
        kinds = {request.kind for request in default_warmup_requests()}
        assert kinds == {"mqo", "join_order", "sql"}
        kinds = {
            request.kind
            for request in default_warmup_requests(include_sql=False)
        }
        assert kinds == {"mqo", "join_order"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("greenlet")

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolScheduler(workers=1, start_method="no-such-method")


class TestRoutedDeterminism:
    """Determinism contract with the per-request router enabled.

    Routing decisions depend only on QUBO size and deadline, and routed
    seed derivation is shared with the static path — so one worker fed the
    same request stream must produce bit-identical plans on the thread
    and the process backend.
    """

    @pytest.fixture(scope="class")
    def routed_workload(self):
        # no duplicates: every request must reach the router on both
        # backends
        requests = distinct_stream(8, seed=52, deadline_ms=2_000.0, sql_fraction=0.25)
        assert {r.kind for r in requests} == {"mqo", "join_order", "sql"}
        return requests

    @pytest.fixture(scope="class")
    def routed_results(self, routed_workload):
        served = {}
        for backend in ("thread", "process"):
            with make_scheduler(
                backend,
                config=ServiceConfig(seed=53, routing=True),
                workers=1,
                warmup=[],
            ) as scheduler:
                results = scheduler.run(routed_workload)
                served[backend] = ([signature(r) for r in results], scheduler.stats())
        return served

    def test_thread_and_process_backends_agree(self, routed_results):
        thread_sigs, _ = routed_results["thread"]
        process_sigs, _ = routed_results["process"]
        assert thread_sigs == process_sigs

    def test_routed_stats_merged_on_both_backends(self, routed_results, routed_workload):
        for backend, (_sigs, stats) in routed_results.items():
            routing = stats["routing"]
            assert routing["enabled"], backend
            assert routing["requests"] == len(routed_workload)
            assert routing["deadline_miss"] <= routing["requests"]

    def test_routing_flag_round_trips_through_config(self):
        config = ServiceConfig(seed=1, routing=True)
        assert ServiceConfig.from_dict(config.to_dict()).routing is True
        service = config.build()
        assert service.routing is not None


class TestDeadWorkerRecovery:
    """A SIGKILLed worker must never leave client futures hanging.

    Regression tests for the reaper: requests stranded on a crashed
    worker (queued behind it or mid-solve) are re-enqueued on a live
    worker, later dispatches skip the corpse, and when no live worker
    remains the failure is a typed ``WorkerCrashError`` — not a future
    that never resolves.
    """

    def test_inflight_requests_recovered_after_worker_kill(self):
        requests = distinct_stream(
            8, seed=WORKLOAD_SEED + 1, deadline_ms=2000.0, sql_fraction=0.0
        )
        with ProcessPoolScheduler(
            config=ServiceConfig(seed=WORKLOAD_SEED), workers=2
        ) as scheduler:
            futures = [scheduler.submit(request) for request in requests]
            # SIGKILL one worker while its share of the batch is in
            # flight: round-robin routed half of the requests to it
            scheduler._processes[0].kill()
            results = [future.result(timeout=120.0) for future in futures]
            # the reaper has marked the corpse by now; later dispatches
            # must route around it and still complete
            late = [
                scheduler.submit(request.with_id(f"late-{index}"))
                for index, request in enumerate(requests[:4])
            ]
            late_results = [future.result(timeout=120.0) for future in late]
        assert [r.request_id for r in results] == [r.request_id for r in requests]
        assert all(r.status == "ok" and r.valid for r in results)
        assert all(r.status == "ok" and r.valid for r in late_results)

    def test_dead_worker_counters_stay_in_stats(self):
        requests = distinct_stream(
            6, seed=WORKLOAD_SEED + 4, deadline_ms=2000.0, sql_fraction=0.0
        )
        with ProcessPoolScheduler(
            config=ServiceConfig(seed=WORKLOAD_SEED), workers=2, warmup=[]
        ) as scheduler:
            scheduler.run(requests)
            before = scheduler.stats()
            scheduler._processes[0].kill()
            scheduler._processes[0].join(timeout=30.0)
            after = scheduler.stats()
        assert before["counters"]["requests_ok"] == len(requests)
        for name, value in before["counters"].items():
            assert after["counters"].get(name, 0) >= value, name
        assert after["histograms"]["latency_ms"]["count"] >= len(requests)
        assert [w["worker"] for w in after["scheduler"]["per_worker"]] == [0, 1]

    @pytest.mark.parametrize("poll", ["stats", "shutdown"])
    def test_poll_right_after_kill_does_not_wait_on_the_corpse(self, poll):
        # no join: the killed worker can still look alive when the poll
        # puts its stats task, which nobody will ever answer; and the
        # kill can land just after its last reply, which must not block
        # the surviving worker's replies
        requests = distinct_stream(
            8, seed=WORKLOAD_SEED + 5, deadline_ms=2000.0, sql_fraction=0.0
        )
        scheduler = ProcessPoolScheduler(
            config=ServiceConfig(seed=WORKLOAD_SEED), workers=2, warmup=[]
        )
        try:
            scheduler.run(requests[:6])
            before = scheduler.stats()
            scheduler._processes[0].kill()
            start = time.perf_counter()
            if poll == "stats":
                after = scheduler.stats()
            else:
                scheduler.shutdown()
                after = scheduler.stats()
            elapsed = time.perf_counter() - start
            if poll == "stats":
                late = [scheduler.submit(request) for request in requests[6:]]
                assert all(f.result(timeout=10.0).status == "ok" for f in late)
        finally:
            scheduler.shutdown()
        assert elapsed < 5.0
        for name, value in before["counters"].items():
            assert after["counters"].get(name, 0) >= value, name
        assert after["histograms"]["latency_ms"]["count"] >= 6

    def test_no_live_workers_raises_typed_error(self):
        (request,) = distinct_stream(
            1, seed=WORKLOAD_SEED + 2, deadline_ms=2000.0, sql_fraction=0.0
        )
        with ProcessPoolScheduler(
            config=ServiceConfig(seed=WORKLOAD_SEED), workers=1
        ) as scheduler:
            scheduler._processes[0].kill()
            scheduler._processes[0].join(timeout=30.0)
            future = scheduler.submit(request)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=60.0)
