"""Multi-core serving: process pool, request coalescing, HTTP gateway.

:mod:`repro.service` made optimization *embeddable* — a thread-safe
service with deadline-aware fallback chains.  This package makes it
*deployable*:

* :mod:`~repro.server.pool` — :class:`ProcessPoolScheduler`, a
  process-per-worker backend so solver throughput scales with cores
  instead of serializing on the GIL.  Requests/results cross workers
  as :mod:`repro.serialization` JSON; each worker warms its imports
  and kernels at startup; ``stats()`` merges every worker into one
  report.
* request coalescing and the one cache, of served results (shared
  with the thread backend, see :class:`repro.service.core.SchedulerBase`) —
  duplicate in-flight requests attach to the running solve and all
  receive its result; repeats of a finished one are answered in the
  scheduler without a solve.
* :mod:`~repro.server.gateway` + :mod:`~repro.server.routes` +
  :mod:`~repro.server.models` — a stdlib-only asyncio HTTP front door
  (``POST /optimize``, ``POST /sql``, ``GET /stats``,
  ``GET /healthz``) layered routes → request-model → service, with
  admission-control backpressure as 503 and graceful drain on
  shutdown.  Launch it with ``python -m repro serve``.

Backends are interchangeable behind :func:`make_scheduler`; the
determinism contract (content-derived solve seeds) guarantees the same
request stream produces bit-identical plans on either backend at any
worker count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.server.gateway import (
    Gateway,
    GatewayHandle,
    run_gateway,
    serve_in_background,
)
from repro.server.models import ApiError
from repro.server.pool import (
    ProcessPoolScheduler,
    ServiceConfig,
    default_warmup_requests,
    warm_up,
)
from repro.service.core import BatchScheduler, OptimizationService, SchedulerBase

__all__ = [
    "ApiError",
    "BACKENDS",
    "Gateway",
    "GatewayHandle",
    "ProcessPoolScheduler",
    "ServiceConfig",
    "default_warmup_requests",
    "make_scheduler",
    "run_gateway",
    "serve_in_background",
]

BACKENDS = ("thread", "process")


def make_scheduler(
    backend: str = "process",
    config: Optional[ServiceConfig] = None,
    workers: Optional[int] = None,
    queue_limit: Optional[int] = None,
    warmup: Optional[Sequence] = None,
) -> SchedulerBase:
    """Build a serving scheduler for either executor backend.

    ``thread`` wraps a fresh in-process :class:`OptimizationService`
    in a :class:`BatchScheduler` (GIL-bound, instant startup);
    ``process`` builds a :class:`ProcessPoolScheduler` whose workers
    each own a service built from ``config``.  Both speak the same
    ``submit`` / ``run`` / ``stats`` / ``shutdown`` protocol, so the
    gateway, CLI, and benchmarks treat them interchangeably.

    When ``warmup`` is None the process backend warms each worker with
    :func:`default_warmup_requests`; the thread backend warms its
    single shared service the same way so backend comparisons measure
    serving, not interpreter startup.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown scheduler backend {backend!r}; valid: {', '.join(BACKENDS)}"
        )
    config = config if config is not None else ServiceConfig()
    # fail at startup, not per-request inside a worker process
    from repro.hybrid.registry import solver_names

    known = set(solver_names())
    unknown = [s.solver for s in config.effective_policy() if s.solver not in known]
    if unknown:
        raise ConfigurationError(
            f"policy names unknown solver(s) {', '.join(sorted(set(unknown)))}; "
            f"registered: {', '.join(sorted(known))}"
        )
    if backend == "thread":
        service = config.build()
        warm_up(service, default_warmup_requests() if warmup is None else warmup)
        return BatchScheduler(
            service,
            workers=workers,
            queue_limit=queue_limit,
        )
    return ProcessPoolScheduler(
        config=config,
        workers=workers,
        queue_limit=queue_limit,
        warmup=warmup,
    )
