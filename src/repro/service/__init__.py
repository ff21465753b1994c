"""Deadline-aware query-optimization serving (the repo's service layer).

The paper frames quantum query optimization as a drop-in for a DBMS
optimizer; the follow-up real-time literature (arXiv:2601.12123,
arXiv:2602.14263) makes the engineering question concrete: serve
optimization requests under a latency budget, picking the best solver
that fits the deadline.  This package composes the repository's solver
registry (PR 2) and harness primitives (PR 1) into that serving layer:

* :mod:`~repro.service.request` — ``OptimizationRequest`` /
  ``OptimizationResult``, JSON-serializable via
  :mod:`repro.serialization`;
* :mod:`~repro.service.chain` — fallback-chain execution with
  per-stage time budgets and graceful degradation;
* :mod:`~repro.service.problems` — per-problem-kind adapters (QUBO
  compilation, decoding, guaranteed classical fallback);
* :mod:`~repro.service.cache` — the content-hash keyed compilation
  cache (served results are cached by the scheduler);
* :mod:`~repro.service.core` — the thread-safe
  :class:`OptimizationService` and the admission-controlled
  :class:`BatchScheduler`;
* :mod:`~repro.service.metrics` — counters and latency histograms
  behind a ``stats()`` snapshot.

Request workloads come from :func:`repro.replay.replay_stream`, and
``python -m repro replay`` drives them through a scheduler.
"""

from repro.service.cache import CompilationCache, merge_cache_stats
from repro.service.chain import (
    ChainOutcome,
    Deadline,
    StageSpec,
    default_policy,
    parse_policy,
    run_chain,
)
from repro.service.core import (
    BatchScheduler,
    OptimizationService,
    SchedulerBase,
    coalesce_key,
)
from repro.service.metrics import Histogram, Metrics, merge_metric_states
from repro.service.problems import JoinOrderAdapter, MqoAdapter, make_adapter
from repro.service.request import (
    OptimizationRequest,
    OptimizationResult,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "BatchScheduler",
    "ChainOutcome",
    "CompilationCache",
    "Deadline",
    "Histogram",
    "JoinOrderAdapter",
    "Metrics",
    "MqoAdapter",
    "OptimizationRequest",
    "OptimizationResult",
    "OptimizationService",
    "SchedulerBase",
    "StageSpec",
    "coalesce_key",
    "default_policy",
    "make_adapter",
    "merge_cache_stats",
    "merge_metric_states",
    "parse_policy",
    "request_from_dict",
    "request_to_dict",
    "result_from_dict",
    "result_to_dict",
    "run_chain",
]
