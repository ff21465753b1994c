"""Process-pool serving backend: solves scale with cores, not the GIL.

:class:`BatchScheduler`'s thread pool serializes solver work on the
GIL — the 64-request serving benchmark recorded when this backend was
added (commit 35c5f5e) showed throughput *falling* as workers were
added.  :class:`ProcessPoolScheduler` is the drop-in replacement: each
worker is a separate OS process owning a full
:class:`~repro.service.core.OptimizationService` (its own metrics and
fallback chain), so solves run truly concurrently on multi-core hosts.

Design decisions worth knowing:

* **JSON over pipes** — requests and results cross the process
  boundary as the compact :mod:`repro.serialization` round-trip
  (``optimization_request`` / ``optimization_result`` payloads), the
  exact same encoding used for files and the HTTP gateway.  No pickle
  of live solver objects, so workers can never observe parent state.
  Each worker replies on its own pipe: no lock is shared between
  workers, so a crashed worker cannot block the others' replies.
* **Determinism across worker counts** — solve seeds derive from the
  problem's content fingerprint (service contract), so which worker
  executes a request is irrelevant: the same request stream yields
  bit-identical plans and energies at ``workers=1`` and ``workers=4``.
* **Per-worker warmup** — each worker optimizes a tiny problem of
  every registered kind before reporting ready, pulling lazy imports,
  numpy kernels, and the QUBO build path hot so the first real request
  isn't billed for interpreter warmup; counters are zeroed afterwards.
* **Mergeable stats** — ``stats()`` polls every worker for its raw
  metric state and folds them (plus parent-side admission/coalescing
  counters) into one :meth:`OptimizationService.stats`-shaped report,
  instead of silently reporting only the parent's empty counters.
* **Round-robin dispatch over per-worker queues** — deterministic
  assignment, and a dedicated control lane for stats polls and the
  graceful-shutdown sentinel (queued work always drains first).
* **Parent-side result cache** — :class:`SchedulerBase`'s bounded LRU
  (``RESULT_CAPACITY`` entries), the pool's one cache: a repeat of a
  finished request is answered inside
  :meth:`submit` — no JSON encode, no IPC, no adapter rebuild in a
  worker.  Parent hits and misses are counted under the worker's
  metric names so the merged report stays exact.
* **Counters survive crashes** — ``stats()`` keeps the last state each
  worker shipped and merges it for workers that have died, so merged
  counters never go backwards after a crash.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import serialization
from repro.exceptions import ConfigurationError, SolverError, WorkerCrashError
from repro.service.chain import StageSpec, default_policy, parse_policy
from repro.service.core import OptimizationService, SchedulerBase
from repro.service.metrics import merge_metric_states
from repro.service.request import OptimizationRequest, OptimizationResult

__all__ = [
    "ProcessPoolScheduler",
    "ServiceConfig",
    "default_warmup_requests",
    "warm_up",
]

#: seed namespace for warmup problems — far from any workload seed so
#: warmup content never collides with real request fingerprints
_WARMUP_SEED = 987_654_321


@dataclass(frozen=True)
class ServiceConfig:
    """JSON-able recipe for building one per-worker service instance.

    Worker processes cannot receive a live :class:`OptimizationService`
    (metrics and locks don't cross ``exec`` boundaries under the spawn
    start method), so the pool ships this config and every worker
    builds its own.
    """

    policy: Optional[Tuple[StageSpec, ...]] = None
    seed: int = 0
    #: enable deadline-aware routing (:mod:`repro.routing`): each
    #: worker builds its own RoutingPolicy over the effective policy's
    #: stages; ``stats()`` merges the per-worker ``router.*`` metrics
    routing: bool = False

    def build(self) -> OptimizationService:
        routing_policy = None
        if self.routing:
            from repro.routing import RoutingPolicy

            routing_policy = RoutingPolicy(candidates=self.effective_policy())
        return OptimizationService(
            policy=self.policy, seed=self.seed, routing=routing_policy
        )

    def effective_policy(self) -> Tuple[StageSpec, ...]:
        return tuple(self.policy) if self.policy is not None else default_policy()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": None
            if self.policy is None
            else [stage.to_dict() for stage in self.policy],
            "seed": self.seed,
            "routing": self.routing,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceConfig":
        policy = data.get("policy")
        return cls(
            policy=None if policy is None else parse_policy(policy),
            seed=int(data.get("seed", 0)),
            routing=bool(data.get("routing", False)),
        )


def default_warmup_requests(include_sql: bool = True) -> List[OptimizationRequest]:
    """Tiny deterministic requests covering every registered kind.

    Solving these inside a fresh worker pulls the lazy imports
    (``repro.sql``), the solver registry, and the numpy kernels hot —
    the cost lands in pool startup instead of the first user request.
    """
    from repro.joinorder.generators import chain_query
    from repro.mqo.generator import random_mqo_problem

    requests = [
        OptimizationRequest(
            request_id="warmup-mqo",
            kind="mqo",
            problem=random_mqo_problem(2, 2, seed=_WARMUP_SEED),
            deadline_ms=100.0,
            seed=_WARMUP_SEED,
        ),
        OptimizationRequest(
            request_id="warmup-join",
            kind="join_order",
            problem=chain_query(3, seed=_WARMUP_SEED),
            deadline_ms=100.0,
            seed=_WARMUP_SEED,
        ),
    ]
    if include_sql:
        from repro.sql import SqlQuery, generate_query, tpch_catalog

        statement = generate_query(seed=_WARMUP_SEED, min_tables=2, max_tables=2)
        requests.append(
            OptimizationRequest(
                request_id="warmup-sql",
                kind="sql",
                problem=SqlQuery(sql=str(statement), catalog=tpch_catalog()),
                deadline_ms=100.0,
                seed=_WARMUP_SEED,
            )
        )
    return requests


def warm_up(service: OptimizationService, requests: Sequence[OptimizationRequest]) -> None:
    """Serve ``requests`` best-effort, then zero the service's counters,
    so the serving report starts clean."""
    for request in requests:
        try:
            service.optimize(request)
        except Exception:  # noqa: BLE001 — warmup is best-effort
            pass
    service.metrics.reset()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(
    worker_index: int,
    config_data: Dict[str, Any],
    warmup_texts: Sequence[str],
    task_queue,
    results,
) -> None:
    """One worker process: build a service, warm it, serve the queue.

    Replies go to ``results``, the write end of this worker's own pipe.
    """
    service = ServiceConfig.from_dict(config_data).build()
    warm_up(service, [serialization.loads(text) for text in warmup_texts])
    results.send(("ready", worker_index, os.getpid()))
    while True:
        item = task_queue.get()
        if item is None:
            results.send(("bye", worker_index, None))
            return
        tag, task_id, payload = item
        if tag == "stats":
            state = service.state()
            state["worker"] = worker_index
            state["pid"] = os.getpid()
            results.send(("stats", task_id, state))
            continue
        try:
            request = serialization.loads(payload)
            result = service.optimize(request)
            results.send(("result", task_id, serialization.dumps(result, indent=None)))
        except Exception as exc:  # noqa: BLE001 — ship failure, keep serving
            results.send(("error", task_id, f"{type(exc).__name__}: {exc}"))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessPoolScheduler(SchedulerBase):
    """Admission-controlled, coalescing scheduler over worker processes.

    Same front end as :class:`repro.service.BatchScheduler` (``submit``
    / ``run`` / ``stats`` / ``shutdown``, context-manager protocol) so
    the gateway, the CLI, and the bench treat backends interchangeably.

    ``start_method`` defaults to ``fork`` where available (instant
    startup, Linux) and falls back to the platform default; either way
    workers never rely on inherited state beyond the module code — all
    inputs arrive as JSON.
    """

    backend = "process"

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
        warmup: Optional[Sequence[OptimizationRequest]] = None,
        start_method: Optional[str] = None,
        ready_timeout: float = 120.0,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        super().__init__(
            (self.config.seed, self.config.effective_policy(), self.config.routing),
            workers=workers,
            queue_limit=queue_limit,
        )
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        elif start_method not in methods:
            raise ConfigurationError(
                f"start method {start_method!r} unavailable; have: {', '.join(methods)}"
            )
        ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method

        warmup_requests = (
            default_warmup_requests() if warmup is None else list(warmup)
        )
        warmup_texts = [
            serialization.dumps(request, indent=None) for request in warmup_requests
        ]

        self._task_queues = [ctx.Queue() for _ in range(self.workers)]
        #: task_id -> (future, target worker, serialized request, retries).
        #: The payload stays here so a request stranded on a crashed
        #: worker can be re-enqueued verbatim on a live one.
        self._pending: Dict[int, Tuple[Future, int, str, int]] = {}
        #: task_id -> (polled worker, future); the reaper fails a dead
        #: worker's entries so a stats poll never waits on a corpse
        self._stats_waiters: Dict[int, Tuple[int, Future]] = {}
        self._next_task = 0
        self._round_robin = 0
        self._final_states: Optional[List[Dict[str, Any]]] = None
        #: worker index -> the last metric state it shipped
        self._last_states: Dict[int, Dict[str, Any]] = {}
        self._ready = threading.Event()
        self._ready_count = 0
        self._live = self.workers
        self._said_bye = [False] * self.workers

        config_data = self.config.to_dict()
        #: one reply pipe per worker, not a shared queue: a shared
        #: queue's cross-process write lock, still held by a worker killed
        #: just after a reply, blocks every other worker's replies for good
        self._result_readers = []
        self._processes = []
        for index in range(self.workers):
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(index, config_data, warmup_texts, self._task_queues[index], writer),
                daemon=True,
                name=f"repro-serve-{index}",
            )
            process.start()
            # the worker holds the only write end (later forks must not
            # inherit it), so its death reads as EOF, even mid-message
            writer.close()
            self._result_readers.append(reader)
            self._processes.append(process)
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="repro-serve-collector"
        )
        self._collector.start()
        if not self._ready.wait(timeout=ready_timeout):
            self.shutdown()
            raise ConfigurationError(
                f"process pool failed to come up within {ready_timeout:g}s"
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """One merged report across every worker plus the parent.

        Counters sum, latency reservoirs concatenate (percentiles are
        recomputed over the union), and the parent's admission,
        coalescing and result-cache counters fold in — the shape
        matches :meth:`OptimizationService.stats` with an extra
        ``scheduler`` section.
        """
        states = (
            self._final_states
            if self._final_states is not None
            else self._poll_worker_states()
        )
        merged = merge_metric_states(state["metrics"] for state in states)
        merged.merge_state(self.scheduler_metrics.state())
        snapshot = merged.snapshot()
        snapshot["uptime_seconds"] = max(
            (state["uptime_seconds"] for state in states), default=0.0
        )
        if self.config.routing:
            from repro.routing import routing_section

            snapshot["routing"] = routing_section(
                snapshot, [spec.solver for spec in self.config.effective_policy()]
            )
        section = self._scheduler_section()
        section["start_method"] = self.start_method
        section["per_worker"] = [
            {
                "worker": state.get("worker"),
                "pid": state.get("pid"),
                "requests_ok": state["metrics"]["counters"].get("requests_ok", 0),
            }
            for state in states
        ]
        snapshot["scheduler"] = section
        return snapshot

    def shutdown(self) -> None:
        """Drain gracefully: queued work finishes, then workers exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._ready.is_set():
            # capture final per-worker states while workers still live
            self._final_states = self._poll_worker_states()
        for task_queue in self._task_queues:
            task_queue.put(None)
        for process in self._processes:
            process.join(timeout=30.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover — hung worker
                process.terminate()
                process.join(timeout=5.0)
        self._collector.join(timeout=10.0)
        self._fail_outstanding("process pool shut down")

    # ------------------------------------------------------------------
    def _dispatch(self, request: OptimizationRequest) -> "Future[OptimizationResult]":
        future: "Future[OptimizationResult]" = Future()
        task_id = self._next_task
        self._next_task += 1
        target = self._pick_worker()
        if target is None:
            future.set_exception(
                WorkerCrashError("no live workers left in the process pool")
            )
            return future
        payload = serialization.dumps(request, indent=None)
        self._pending[task_id] = (future, target, payload, 0)
        self._task_queues[target].put(("request", task_id, payload))
        return future

    def _pick_worker(self) -> Optional[int]:
        """Next live worker in round-robin order; ``None`` if all died.

        Skipping dead workers here (rather than letting the reaper mop
        up afterwards) means a request is never parked on a queue no
        process will ever read.  Callers hold the scheduler lock.
        """
        for _ in range(self.workers):
            index = self._round_robin % self.workers
            self._round_robin += 1
            if self._processes[index].is_alive() and not self._said_bye[index]:
                return index
        return None

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Parent collector thread: route worker messages to futures."""
        readers = list(self._result_readers)
        while True:
            ready = multiprocessing.connection.wait(readers, timeout=0.25)
            if not ready:
                if self._closed and not any(p.is_alive() for p in self._processes):
                    return
                self._reap_dead_workers()
                continue
            for reader in ready:
                try:
                    message = reader.recv()
                except (EOFError, OSError):  # the worker exited or died
                    readers.remove(reader)
                    continue
                if self._route(message):
                    return

    def _route(self, message: Tuple[str, int, Any]) -> bool:
        """Settle the future ``message`` answers; true once the collector
        should stop (every worker said goodbye after shutdown)."""
        tag, ident, payload = message
        if tag == "ready":
            self._ready_count += 1
            if self._ready_count >= self.workers:
                self._ready.set()
        elif tag == "bye":
            self._said_bye[ident] = True
            self._live -= 1
            return self._closed and self._live <= 0
        elif tag == "result":
            entry = self._pending.pop(ident, None)
            if entry is not None:
                entry[0].set_result(serialization.loads(payload))
        elif tag == "error":
            entry = self._pending.pop(ident, None)
            if entry is not None:
                entry[0].set_exception(SolverError(f"worker failed: {payload}"))
        elif tag == "stats":
            entry = self._stats_waiters.pop(ident, None)
            if entry is not None:
                entry[1].set_result(payload)
        return False

    def _reap_dead_workers(self) -> None:
        """Recover requests routed to a worker that died without a goodbye.

        Every stranded request — whether it was queued behind the crash
        or mid-solve when the process died — is re-enqueued once on a
        live worker (safe: solve seeds derive from request content, so
        a re-execution is bit-identical).  A request whose retry also
        crashes, or one stranded when no live worker remains, fails with
        a typed :class:`WorkerCrashError` instead of hanging forever.
        A stats poll waiting on the dead worker fails the same way, so
        :meth:`_poll_worker_states` falls back to its last state at once.
        """
        for index, process in enumerate(self._processes):
            if process.is_alive() or self._said_bye[index]:
                continue
            with self._lock:
                self._said_bye[index] = True
                self._live -= 1
                stranded = [
                    (task_id, self._pending.pop(task_id))
                    for task_id, entry in list(self._pending.items())
                    if entry[1] == index
                ]
                polls = [
                    self._stats_waiters.pop(task_id)[1]
                    for task_id, entry in list(self._stats_waiters.items())
                    if entry[0] == index
                ]
            reason = (
                f"worker {index} (pid {process.pid}) died with exit code "
                f"{process.exitcode}"
            )
            for waiter in polls:
                waiter.set_exception(WorkerCrashError(reason))
            for task_id, (future, _target, payload, retries) in stranded:
                self._requeue(task_id, future, payload, retries, reason)

    def _requeue(
        self,
        task_id: int,
        future: Future,
        payload: str,
        retries: int,
        reason: str,
    ) -> None:
        with self._lock:
            target = None if retries >= 1 else self._pick_worker()
            if target is not None:
                self._pending[task_id] = (future, target, payload, retries + 1)
        if target is None:
            future.set_exception(
                WorkerCrashError(f"request abandoned: {reason}")
            )
        else:
            self._task_queues[target].put(("request", task_id, payload))

    def _poll_worker_states(self, timeout: float = 30.0) -> List[Dict[str, Any]]:
        """Every worker's latest raw metric state, in worker order.

        Live workers are asked afresh.  Stats polls ride the same
        per-worker queues as requests, so a busy worker answers after
        finishing its queued solves — the snapshot is therefore
        consistent (no mid-solve counters).  A worker that has died
        contributes the last state it shipped, so its counters stay in
        the merged report.
        """
        waiters: List[Tuple[int, int, Future]] = []
        with self._lock:
            for index in range(self.workers):
                if not self._processes[index].is_alive():
                    continue
                task_id = self._next_task
                self._next_task += 1
                waiter: Future = Future()
                self._stats_waiters[task_id] = (index, waiter)
                self._task_queues[index].put(("stats", task_id, None))
                waiters.append((index, task_id, waiter))
        for index, task_id, waiter in waiters:
            try:
                self._last_states[index] = waiter.result(timeout=timeout)
            except Exception:  # noqa: BLE001 — a dying worker keeps its last state
                self._stats_waiters.pop(task_id, None)
        return [self._last_states[index] for index in sorted(self._last_states)]

    def _fail_outstanding(self, reason: str) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future, *_rest in pending:
            if not future.done():
                future.set_exception(SolverError(reason))
