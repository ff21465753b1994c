"""The optimization service: deadline-aware serving with fallback chains.

:class:`OptimizationService` is embeddable and thread-safe: any number
of threads may call :meth:`~OptimizationService.optimize` concurrently
against shared caches and metrics.  :class:`BatchScheduler` adds a
worker pool with admission control on top — a bounded in-flight count,
rejecting excess requests with a reason instead of queueing unboundedly.

Caching is split by layer: the service caches compiled problems
(:class:`~repro.service.cache.CompilationCache`), and
:class:`SchedulerBase` — the front end of both scheduler backends —
holds the one cache of served results.  A direct
:meth:`~OptimizationService.optimize` call always runs the chain.

Determinism contract: a request's solve seed is derived (harness
SHA-256 scheme) from the root seed, the problem's content fingerprint,
and the policy — *not* from request ids, deadlines or arrival order.
Two requests carrying the same problem therefore produce identical
plans and stage assignments whether they run serially, concurrently,
or get served from the result cache, and a rerun of a whole workload
with the same root seed reproduces it plan-for-plan (as long as every
stage reached completes within its deadline slice).
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from threading import RLock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.harness import derive_seed, resolve_workers
from repro.service.cache import CompilationCache, LruSection
from repro.service.chain import StageSpec, default_policy, policy_key, run_chain
from repro.service.metrics import Metrics
from repro.service.problems import make_adapter, problem_fingerprint
from repro.service.request import (
    OptimizationRequest,
    OptimizationResult,
    problem_to_dict,
)

__all__ = [
    "BatchScheduler",
    "OptimizationService",
    "SchedulerBase",
    "coalesce_key",
    "record_arrival",
    "record_served",
]


def record_arrival(metrics: Metrics, kind: str) -> None:
    """Count one request entering the service (served or not)."""
    metrics.incr("requests_total")
    metrics.incr(f"requests_kind.{kind}")


def record_served(
    metrics: Metrics, served_by: str, deadline_exceeded: bool, elapsed_ms: float
) -> None:
    """Count one answered request and observe its latency.

    Shared by the service and the scheduler result cache
    (:class:`SchedulerBase`), so a request solved by a service and one
    answered from the cache land under the same counter names in the
    merged report.
    """
    metrics.incr("requests_ok")
    metrics.incr(f"served_by.{served_by}")
    if deadline_exceeded:
        metrics.incr("deadline_exceeded")
    metrics.observe("latency_ms", elapsed_ms)


def coalesce_key(
    request: OptimizationRequest,
    default_seed: int,
    default_policy: Sequence[StageSpec],
    routed: bool = False,
) -> str:
    """Content key under which concurrent requests may share one solve.

    Two requests coalesce only when every solve-relevant input matches:
    the problem content hash, the effective root seed, the policy +
    chain mode, and the deadline budget.  Because solve seeds derive
    from problem content (not request ids), requests agreeing on this
    key are guaranteed to produce field-identical results, so answering
    a follower with the primary's result is not an approximation.

    ``routed`` marks keys served by a routing-enabled scheduler.
    Concurrent duplicates still coalesce — the follower receives the
    chain outcome the router picked for the primary, which is a valid
    serving result for the identical content — but the marker keeps
    routed keys from ever colliding with static-chain keys, whose
    results may differ for the same content.
    """
    policy = tuple(request.policy) if request.policy is not None else tuple(default_policy)
    root_seed = default_seed if request.seed is None else int(request.seed)
    fingerprint = problem_fingerprint(
        request.kind, problem_to_dict(request.kind, request.problem)
    )
    pkey = policy_key(policy, request.mode)
    if routed and request.policy is None:
        pkey = f"routed|{pkey}"
    return f"{fingerprint}|{root_seed}|{pkey}|{request.deadline_ms:g}"


class OptimizationService:
    """Serve MQO / join-ordering requests under per-request deadlines."""

    def __init__(
        self,
        policy: Optional[Sequence[StageSpec]] = None,
        seed: int = 0,
        routing=None,
    ) -> None:
        self.policy: Tuple[StageSpec, ...] = (
            tuple(policy) if policy is not None else default_policy()
        )
        self.seed = int(seed)
        self.cache = CompilationCache()
        self.metrics = Metrics()
        #: optional :class:`repro.routing.RoutingPolicy` — when set,
        #: requests without an explicit per-request policy get their
        #: chain order and budget split decided per request from the
        #: runtime prior; None (the default) serves the static
        #: chain bit-identically to earlier releases
        self.routing = routing
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    def optimize(self, request: OptimizationRequest) -> OptimizationResult:
        """Serve one request: best-effort plan within its deadline."""
        start = time.perf_counter()
        record_arrival(self.metrics, request.kind)

        adapter = self._compiled_adapter(request)
        root_seed = self.seed if request.seed is None else int(request.seed)
        policy = request.policy if request.policy is not None else self.policy
        # the solve seed derives from the *static* policy key, not the
        # routed per-request chain: whenever the router's chain order
        # matches the static order (loose deadlines), every stage seed
        # matches the unrouted run and the plan is bit-identical to the
        # static service's
        solve_seed = derive_seed(
            root_seed,
            "repro.service",
            {"fingerprint": adapter.fingerprint, "policy": policy_key(policy, request.mode)},
        )
        decision = None
        if self.routing is not None and request.policy is None:
            from repro.routing.features import extract_features

            decision = self.routing.decide(
                extract_features(adapter), request.deadline_ms
            )
            policy = decision.policy

        outcome = run_chain(
            adapter,
            policy,
            deadline_s=request.deadline_ms / 1000.0,
            seed=solve_seed,
            mode=request.mode,
        )
        if decision is not None:
            # router counters land in the service metrics so the
            # process pool merges them like any other
            self.routing.observe(decision, outcome, self.metrics)
        for entry in outcome.stage_trace:
            self.metrics.observe(f"stage_seconds.{entry['stage']}", entry["seconds"])
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        record_served(self.metrics, outcome.served_by, outcome.deadline_exceeded, elapsed_ms)
        return OptimizationResult(
            request_id=request.request_id,
            kind=request.kind,
            status="ok",
            plan=dict(outcome.plan),
            cost=outcome.cost,
            energy=outcome.energy,
            valid=outcome.valid,
            served_by=outcome.served_by,
            deadline_exceeded=outcome.deadline_exceeded,
            elapsed_ms=elapsed_ms,
            stage_trace=outcome.stage_trace,
        )

    def stats(self) -> Dict:
        """Metrics + cache snapshot for dashboards and the CLI."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        snapshot["uptime_seconds"] = time.perf_counter() - self._started
        if self.routing is not None:
            from repro.routing.router import routing_section

            snapshot["routing"] = routing_section(
                snapshot, [spec.solver for spec in self.routing.candidates]
            )
        return snapshot

    def state(self) -> Dict:
        """Raw mergeable state (JSON-safe) for cross-process aggregation.

        Worker processes ship this to the parent, which folds every
        worker into one :meth:`stats`-shaped report via
        :func:`repro.service.metrics.merge_metric_states` — the fix for
        multi-process serving otherwise reporting only the parent's
        (empty) counters.
        """
        return {
            "metrics": self.metrics.state(),
            "cache": self.cache.stats(),
            "uptime_seconds": time.perf_counter() - self._started,
        }

    # ------------------------------------------------------------------
    def _compiled_adapter(self, request: OptimizationRequest):
        probe = make_adapter(request.kind, request.problem)
        cached = self.cache.get_compiled(probe.fingerprint)
        if cached is not None:
            self.metrics.incr("cache.compile_hits")
            return cached
        self.metrics.incr("cache.compile_misses")
        probe.bqm()  # compile eagerly so the cached adapter is immutable
        probe.compiled()  # array-compiled kernels, same cache entry
        self.cache.put_compiled(probe.fingerprint, probe)
        return probe


class SchedulerBase:
    """The scheduler front end, backend-agnostic.

    Both scheduler backends — the thread pool below and the process
    pool in :mod:`repro.server.pool` — share everything :meth:`submit`
    does before a solve starts:

    * **result cache**: the only cache of served results — a bounded
      LRU (``result_capacity`` entries) keyed by the request's
      :func:`coalesce_key`.  A finished answer is stored when it is
      deterministic (``ok``, not deadline-truncated, positive
      deadline), before the client's future resolves, so a repeat
      sent once an answer is out is answered inside :meth:`submit`
      with ``cache_hit=True`` — no worker, no adapter rebuild.  Hits
      are counted under the service's metric names, and each keyed
      request dispatched to a worker counts one ``cache.result_misses``;
      ``stats()["scheduler"]["result_cache"]`` reports
      ``{size, capacity, hits}``;
    * **admission control**: ``queue_limit`` bounds the number of
      admitted-but-unfinished requests; beyond it, :meth:`submit`
      resolves immediately to a ``rejected`` result naming the
      saturation reason (the gateway maps this to HTTP 503);
    * **request coalescing**: while a solve for some
      :func:`coalesce_key` is in flight, duplicate submissions do not
      enqueue — they attach to the primary's future and receive its
      result re-addressed under their own request id.  Followers
      consume no worker and no queue slot.  Counted as
      ``coalesce.hits`` / ``coalesce.misses`` in the scheduler section
      of :meth:`stats`;
    * **shutdown**: :meth:`submit` after :meth:`shutdown` raises
      :class:`ConfigurationError`.

    ``coalesce=False`` computes no key, so it bypasses the result cache
    as well.  ``key_inputs`` is the ``(seed, policy, routed)`` triple
    the coalesce key is computed from; ``metrics`` receives the
    scheduler's counters (a fresh :class:`Metrics` by default).
    Subclasses provide ``_dispatch`` (start one solve), ``stats`` and
    ``shutdown``.
    """

    backend = ""

    def __init__(
        self,
        key_inputs: Tuple[int, Sequence[StageSpec], bool],
        result_capacity: int,
        workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
        coalesce: bool = True,
        metrics: Optional[Metrics] = None,
    ) -> None:
        seed, policy, routed = key_inputs
        self._key_inputs = (int(seed), tuple(policy), bool(routed))
        self.workers = resolve_workers(workers)
        self.queue_limit = queue_limit
        self.coalesce = bool(coalesce)
        self.scheduler_metrics = metrics if metrics is not None else Metrics()
        # reentrant: a fast completion may run _release from within the
        # submitting thread's add_done_callback while submit holds it.
        # The lock also guards the result LruSection, which is not
        # thread-safe on its own.
        self._lock = RLock()
        self._closed = False
        self._in_flight = 0
        self._flights: Dict[str, "Future[OptimizationResult]"] = {}
        self._results = LruSection(result_capacity)

    # ------------------------------------------------------------------
    def submit(self, request: OptimizationRequest) -> "Future[OptimizationResult]":
        """Answer from cache, coalesce, reject or dispatch one request."""
        start = time.perf_counter()
        key = coalesce_key(request, *self._key_inputs) if self.coalesce else None
        with self._lock:
            if self._closed:
                raise ConfigurationError("scheduler is shut down")
            if key is not None:
                stored = self._results.get(key)
                if stored is not None:
                    future: "Future[OptimizationResult]" = Future()
                    future.set_result(self._hit(request, stored, start))
                    return future
                primary = self._flights.get(key)
                if primary is not None:
                    self.scheduler_metrics.incr("coalesce.hits")
                    return _chain(primary, lambda r: r.with_request_id(request.request_id))
                self.scheduler_metrics.incr("coalesce.misses")
            if self.queue_limit is not None and self._in_flight >= self.queue_limit:
                reason = (
                    f"queue saturated: {self._in_flight} request(s) in flight "
                    f"(limit {self.queue_limit})"
                )
                future = Future()
                future.set_result(self._rejected(request, reason))
                return future
            self._in_flight += 1
            future = self._dispatch(request)
            if key is not None:
                self.scheduler_metrics.incr("cache.result_misses")
                # the answer is stored before the client's future resolves
                future = _chain(future, lambda r: self._remember(request, key, r))
                self._flights[key] = future
            future.add_done_callback(lambda _f: self._release(key))
        return future

    def run(self, requests: Sequence[OptimizationRequest]) -> List[OptimizationResult]:
        """Submit a whole workload; results come back in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def stats(self) -> Dict:
        """One aggregated report: service metrics + a scheduler section."""
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "SchedulerBase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def _dispatch(self, request: OptimizationRequest) -> "Future[OptimizationResult]":
        """Start one solve; called under the scheduler lock."""
        raise NotImplementedError

    def _release(self, key: Optional[str]) -> None:
        with self._lock:
            self._in_flight -= 1
            if key is not None:
                self._flights.pop(key, None)

    def _hit(
        self, request: OptimizationRequest, stored: OptimizationResult, start: float
    ) -> OptimizationResult:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        metrics = self.scheduler_metrics
        record_arrival(metrics, request.kind)
        metrics.incr("cache.result_hits")
        record_served(metrics, stored.served_by, stored.deadline_exceeded, elapsed_ms)
        return replace(
            stored,
            request_id=request.request_id,
            plan=dict(stored.plan),
            cache_hit=True,
            elapsed_ms=elapsed_ms,
        )

    def _remember(
        self, request: OptimizationRequest, key: str, result: OptimizationResult
    ) -> OptimizationResult:
        """Store ``result`` under ``key`` if it is deterministic."""
        if request.deadline_ms > 0 and result.status == "ok" and not result.deadline_exceeded:
            with self._lock:
                self._results.put(key, replace(result, plan=dict(result.plan)))
        return result

    def _rejected(self, request: OptimizationRequest, reason: str) -> OptimizationResult:
        self.scheduler_metrics.incr("requests_total")
        self.scheduler_metrics.incr("requests_rejected")
        return OptimizationResult(
            request_id=request.request_id,
            kind=request.kind,
            status="rejected",
            reject_reason=reason,
        )

    def _scheduler_section(self) -> Dict:
        hits = self.scheduler_metrics.counter("coalesce.hits")
        misses = self.scheduler_metrics.counter("coalesce.misses")
        lookups = hits + misses
        with self._lock:
            in_flight = self._in_flight
            result_cache = {
                "size": len(self._results.entries),
                "capacity": self._results.capacity,
                "hits": self._results.hits,
            }
        return {
            "backend": self.backend,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "in_flight": in_flight,
            "coalesce": {
                "enabled": self.coalesce,
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            },
            "result_cache": result_cache,
        }


def _chain(
    source: "Future[OptimizationResult]",
    convert: Callable[[OptimizationResult], OptimizationResult],
) -> "Future[OptimizationResult]":
    """A future resolving to ``convert(result)`` once ``source`` resolves."""
    target: "Future[OptimizationResult]" = Future()

    def _copy(done: "Future[OptimizationResult]") -> None:
        exc = done.exception()
        if exc is not None:
            target.set_exception(exc)
        else:
            target.set_result(convert(done.result()))

    source.add_done_callback(_copy)
    return target


class BatchScheduler(SchedulerBase):
    """Run many in-flight requests on a thread pool with admission control.

    The in-process backend: cheap to spin up and fine for I/O-light or
    cache-dominated traffic, but solver-bound workloads serialize on
    the GIL — use :class:`repro.server.ProcessPoolScheduler` to scale
    with cores.  Worker count resolves through the harness convention
    (explicit argument, then ``REPRO_BENCH_WORKERS``, then 1).  The
    scheduler counts into the service's :class:`Metrics`, so result
    cache hits, misses and rejections show in ``service.stats()``.
    """

    backend = "thread"

    def __init__(
        self,
        service: OptimizationService,
        workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
        coalesce: bool = True,
        result_capacity: int = 1024,
    ) -> None:
        super().__init__(
            (service.seed, service.policy, service.routing is not None),
            result_capacity,
            workers=workers,
            queue_limit=queue_limit,
            coalesce=coalesce,
            metrics=service.metrics,
        )
        self.service = service
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )

    def stats(self) -> Dict:
        """The service's snapshot plus the scheduler section."""
        stats = self.service.stats()
        stats["scheduler"] = self._scheduler_section()
        return stats

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _dispatch(self, request: OptimizationRequest) -> "Future[OptimizationResult]":
        return self._pool.submit(self.service.optimize, request)
