"""Drive a replay stream through a scheduler and measure the tail.

:func:`run_replay` is the measurement loop of the replay harness: it
pulls requests from a (lazy) stream, keeps at most ``max_in_flight`` of
them admitted at once, optionally paces submissions to an open-loop
arrival rate, and records what production dashboards would: client-side
latency percentiles, result-cache and coalescing hit rates (plus the
scheduler's own result cache), admission rejections, and deadline
misses.  Every served plan is also checked
against its problem (``make_adapter(kind, problem).validate``); a plan
that fails counts as ``invalid``.

The in-flight window serves two purposes.  It bounds memory — the
harness never holds more than ``max_in_flight`` outstanding futures, so
a 10^6-request stream replays in constant space — and it models a
client population: with a rate it is a cap on concurrency; without one
it *is* the closed-loop concurrency level.

Latency is measured from submission to completion on the client side
(queueing included), in a reservoir sized to keep nearest-rank
percentiles exact for runs up to ``histogram_capacity`` requests.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from threading import Lock, Semaphore
from typing import Callable, Dict, Iterable, Optional

from repro.exceptions import ConfigurationError, ProblemError
from repro.serialization import to_jsonable
from repro.service.core import SchedulerBase
from repro.service.metrics import Histogram
from repro.service.problems import make_adapter
from repro.service.request import OptimizationRequest, OptimizationResult

__all__ = ["ReplayReport", "run_replay"]

#: (problem id, plan) pairs already validated before the memo is reset;
#: bounds the memo on long streams of distinct problems
_VALIDATED_CAPACITY = 65_536


@dataclass
class ReplayReport:
    """What one replay run observed, JSON-ready via :meth:`to_dict`."""

    backend: str
    workers: int
    requests: int = 0
    ok: int = 0
    rejected: int = 0
    deadline_missed: int = 0
    errors: int = 0
    #: served plans that fail their problem's validity check
    invalid: int = 0
    wall_seconds: float = 0.0
    offered_rate: Optional[float] = None
    latency_ms: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    coalesce: Dict[str, float] = field(default_factory=dict)
    #: the scheduler's result cache (size, capacity, hits)
    result_cache: Dict[str, int] = field(default_factory=dict)
    #: the router's counters (requests, deadline_miss, fallthrough,
    #: infeasible); empty when routing is off
    routing: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.requests if self.requests else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Misses among *served* requests (rejections never ran)."""
        served = self.requests - self.rejected - self.errors
        return self.deadline_missed / served if served > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "requests": self.requests,
            "ok": self.ok,
            "rejected": self.rejected,
            "deadline_missed": self.deadline_missed,
            "errors": self.errors,
            "invalid": self.invalid,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "offered_rate": self.offered_rate,
            "rejection_rate": self.rejection_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "latency_ms": dict(self.latency_ms),
            "cache": dict(self.cache),
            "coalesce": dict(self.coalesce),
            "result_cache": dict(self.result_cache),
            "routing": dict(self.routing),
        }


def _rate_section(counters: Dict[str, int], hits_key: str, misses_key: str) -> Dict[str, float]:
    hits = int(counters.get(hits_key, 0))
    misses = int(counters.get(misses_key, 0))
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


class _PlanValidator:
    """Validates served plans, skipping exact repeats.

    A repeat is the same plan for the same problem *object*, which is
    what a stream's duplicates are; the memo keeps each problem alive
    so its ``id`` cannot be reused while the entry stands.
    """

    def __init__(self) -> None:
        self._validated: Dict[tuple, object] = {}

    def __call__(self, request: OptimizationRequest, result: OptimizationResult) -> bool:
        if not result.valid:
            return False
        key = (
            id(request.problem),
            json.dumps(to_jsonable(result.plan), sort_keys=True),
        )
        if self._validated.get(key) is request.problem:
            return True
        try:
            valid = make_adapter(request.kind, request.problem).validate(result.plan)
        except (ProblemError, TypeError, ValueError):  # a malformed plan
            return False
        if not valid:
            return False
        if len(self._validated) >= _VALIDATED_CAPACITY:
            self._validated.clear()
        self._validated[key] = request.problem
        return True


def run_replay(
    scheduler: SchedulerBase,
    stream: Iterable[OptimizationRequest],
    rate: Optional[float] = None,
    max_in_flight: int = 256,
    histogram_capacity: int = 200_000,
    progress: Optional[Callable[[int], None]] = None,
    progress_every: int = 100_000,
) -> ReplayReport:
    """Replay ``stream`` through ``scheduler``; returns the report.

    ``rate`` (requests/second) paces submissions open-loop: request
    ``i`` is offered no earlier than ``start + i / rate``, and if the
    serving side cannot keep up the in-flight window fills and
    admission control (the scheduler's ``queue_limit``) does its job.
    Without a rate the harness submits as fast as the window allows
    (closed loop at concurrency ``max_in_flight``).

    Every ``ok`` result is validated against its request's problem;
    failures are counted in ``ReplayReport.invalid``.

    ``progress`` (called with the submission count every
    ``progress_every`` requests) lets the CLI narrate long runs.
    """
    if max_in_flight < 1:
        raise ConfigurationError("max_in_flight must be at least 1")
    if rate is not None and rate <= 0:
        raise ConfigurationError("arrival rate must be positive")

    window = Semaphore(max_in_flight)
    lock = Lock()
    latency = Histogram(capacity=histogram_capacity)
    validate = _PlanValidator()
    report = ReplayReport(
        backend=scheduler.backend, workers=scheduler.workers, offered_rate=rate
    )

    def _complete(request: OptimizationRequest, submitted_at: float, future) -> None:
        elapsed_ms = (time.perf_counter() - submitted_at) * 1000.0
        try:
            with lock:
                latency.record(elapsed_ms)
                exc = future.exception()
                if exc is not None:
                    report.errors += 1
                    return
                result = future.result()
                if result.status == "rejected":
                    report.rejected += 1
                    return
                if result.deadline_exceeded:
                    report.deadline_missed += 1
                if result.status == "ok":
                    report.ok += 1
                    if not validate(request, result):
                        report.invalid += 1
        finally:
            # the drain below waits for every slot, so release even if
            # a check raised
            window.release()

    start = time.perf_counter()
    submitted = 0
    for request in stream:
        window.acquire()
        if rate is not None:
            target = start + submitted / rate
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        submitted_at = time.perf_counter()
        future = scheduler.submit(request)
        future.add_done_callback(
            lambda f, r=request, t=submitted_at: _complete(r, t, f)
        )
        submitted += 1
        if progress is not None and submitted % max(1, progress_every) == 0:
            progress(submitted)

    # drain: reclaiming the whole window means every callback has run
    for _ in range(max_in_flight):
        window.acquire()
    report.wall_seconds = time.perf_counter() - start
    report.requests = submitted
    report.latency_ms = latency.snapshot()

    stats = scheduler.stats()
    counters = stats.get("counters", {})
    report.cache = _rate_section(counters, "cache.result_hits", "cache.result_misses")
    scheduler_section = stats.get("scheduler", {})
    coalesce = scheduler_section.get("coalesce", {})
    report.coalesce = {
        "hits": int(coalesce.get("hits", 0)),
        "misses": int(coalesce.get("misses", 0)),
        "hit_rate": float(coalesce.get("hit_rate", 0.0)),
    }
    report.result_cache = dict(scheduler_section.get("result_cache", {}))
    routing = stats.get("routing", {})
    report.routing = {
        name: int(routing[name])
        for name in ("requests", "deadline_miss", "fallthrough", "infeasible")
        if name in routing
    }
    return report
