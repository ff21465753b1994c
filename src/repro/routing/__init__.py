"""Deadline-aware solver routing from a fixed runtime prior.

The serving layer's fallback chain (:mod:`repro.service.chain`) is
static: every request walks hybrid → tabu → sa → greedy.  The
real-time follow-up literature (PAPERS.md: arXiv 2601.12123,
2602.14263) frames production query optimization as the *choice*
problem instead — per request, under a latency budget, which backend
should run, and for how long?  This package is that choice:

* :mod:`~repro.routing.features` — the problem kind and QUBO variable
  count, deterministic per problem fingerprint;
* :mod:`~repro.routing.model` — :class:`SolverCostModel`, a fixed
  per-solver runtime prior over QUBO size, calibrated from recorded
  benchmarks;
* :mod:`~repro.routing.router` — :class:`RoutingPolicy`, which turns
  predictions + deadline into a chain order and per-stage budget
  split, and records routing metrics for every executed chain.

Routing is **off by default**: construct the service with
``OptimizationService(routing=RoutingPolicy())`` (or
``ServiceConfig(routing=True)`` / ``--route`` on the CLI) to enable
it.  With routing off, serving is bit-identical to the static chain.
"""

from __future__ import annotations

from repro.routing.features import ProblemFeatures, extract_features
from repro.routing.model import DEFAULT_PRIORS, SolverCostModel
from repro.routing.router import RoutingDecision, RoutingPolicy, routing_section

__all__ = [
    "DEFAULT_PRIORS",
    "ProblemFeatures",
    "RoutingDecision",
    "RoutingPolicy",
    "SolverCostModel",
    "extract_features",
    "routing_section",
]
