"""The per-request router: deadline-aware chain order and budget split.

Given the request's QUBO size and deadline, :meth:`RoutingPolicy.decide`
asks the cost model for every candidate stage's predicted runtime and
builds the chain for *this* request:

* candidates predicted to finish within 0.8 × the deadline keep the
  static chain's quality order at weight 1.0 (the static chain is
  ordered strongest-first, so among feasible stages the best solver
  still goes first, and the feasible stages split the budget evenly);
* candidates predicted to blow the deadline are appended as a safety
  net, cheapest first, with epsilon budget weight — they only run when
  every feasible stage failed, at which point leftover budget rolls
  forward to them anyway;
* when *nothing* is predicted to fit, the whole chain runs
  cheapest-first at weight 1.0, maximizing the chance any stage
  answers at all.

The 0.8 leaves slack for compile/decode overhead outside the stage
clock and for a rescue stage when the leader fails.

By construction the router never puts a predicted-infeasible stage
first while a predicted-feasible candidate exists — that is the
``routing-regret`` invariant the verification sweep checks; its planted
bug (``--inject router``) hands the router a cost model that predicts
every stage ~20x too fast.

:meth:`RoutingPolicy.observe` records the request-level routing metrics
(prediction error per solver, regret, deadline misses, fallthroughs) in
the service's ``Metrics``, so multi-process serving merges them like
every other counter.  Observations never change later decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.routing.features import ProblemFeatures
from repro.routing.model import SolverCostModel
from repro.service.chain import StageSpec, default_policy

__all__ = ["RoutingDecision", "RoutingPolicy", "routing_section"]

#: epsilon budget weight for safety-net stages
_MIN_STAGE_WEIGHT = 0.05

#: fraction of the deadline a stage may be predicted to use and still fit
_FIT_FRACTION = 0.8


@dataclass(frozen=True)
class RoutingDecision:
    """One routed chain plus the predictions behind it."""

    #: the chain this request will run, weights = budget split
    policy: Tuple[StageSpec, ...]
    #: (solver, predicted runtime ms) for every candidate, decision order
    predicted_ms: Tuple[Tuple[str, float], ...]
    #: True when at least one candidate was predicted to fit
    feasible: bool


class RoutingPolicy:
    """Decide a chain per request from the runtime prior."""

    def __init__(
        self,
        candidates: Optional[Sequence[StageSpec]] = None,
        model: Optional[SolverCostModel] = None,
    ) -> None:
        #: candidate stages in *quality* order (strongest first); the
        #: static default chain is already ordered that way
        self.candidates: Tuple[StageSpec, ...] = (
            tuple(candidates) if candidates is not None else default_policy()
        )
        self.model = model if model is not None else SolverCostModel()

    # ------------------------------------------------------------------
    def decide(self, features: ProblemFeatures, deadline_ms: float) -> RoutingDecision:
        """Pick the chain order and budget split for one request."""
        predictions = [
            (spec, self.model.predict_runtime_ms(spec.solver, features.num_variables))
            for spec in self.candidates
        ]
        budget = _FIT_FRACTION * deadline_ms
        fits = [entry for entry in predictions if entry[1] <= budget]
        misses = sorted(
            (entry for entry in predictions if entry[1] > budget),
            key=lambda entry: entry[1],
        )
        # when nothing fits, every stage runs cheapest-first at full weight
        miss_weight = _MIN_STAGE_WEIGHT if fits else 1.0
        weighted = [(spec, pred, 1.0) for spec, pred in fits] + [
            (spec, pred, miss_weight) for spec, pred in misses
        ]
        return RoutingDecision(
            policy=tuple(replace(spec, weight=w) for spec, _, w in weighted),
            predicted_ms=tuple((spec.solver, pred) for spec, pred, _ in weighted),
            feasible=bool(fits),
        )

    # ------------------------------------------------------------------
    def observe(self, decision: RoutingDecision, outcome, metrics) -> None:
        """Record one executed chain's routing metrics.

        ``outcome`` is the :class:`repro.service.chain.ChainOutcome`
        the decision's chain produced; ``metrics`` is the owning
        service's :class:`repro.service.metrics.Metrics`, which
        receives the ``router.*`` counters and histograms so the
        process pool aggregates them for free.
        """
        predicted = dict(decision.predicted_ms)
        for entry in outcome.stage_trace:
            stage = entry.get("stage")
            pred = predicted.get(stage)
            if pred is None:  # the chain's guaranteed classical fallback
                continue
            observed_ms = float(entry.get("seconds", 0.0)) * 1000.0
            metrics.observe(
                f"router.prediction_error_ms.{stage}", abs(observed_ms - pred)
            )
        metrics.incr("router.requests")
        elapsed_ms = float(outcome.seconds) * 1000.0
        metrics.observe(
            "router.regret_ms", max(0.0, elapsed_ms - decision.predicted_ms[0][1])
        )
        if outcome.deadline_exceeded:
            metrics.incr("router.deadline_miss")
        if not decision.feasible:
            metrics.incr("router.infeasible")
        if outcome.served_by != decision.policy[0].solver:
            metrics.incr("router.fallthrough")


def routing_section(
    metrics_snapshot: Mapping[str, Any], candidates: Iterable[str] = ()
) -> Dict[str, Any]:
    """The ``stats()["routing"]`` block from merged metrics.

    Shared by the single-process service and the process pool so both
    backends report the same shape: deadline-miss rate, per-solver
    prediction error and regret.
    """
    counters = metrics_snapshot.get("counters", {})
    histograms = metrics_snapshot.get("histograms", {})
    requests = counters.get("router.requests", 0)
    misses = counters.get("router.deadline_miss", 0)
    prefix = "router.prediction_error_ms."
    prediction_error: Dict[str, Any] = {
        name[len(prefix):]: hist
        for name, hist in histograms.items()
        if name.startswith(prefix)
    }
    return {
        "enabled": True,
        "candidates": list(candidates),
        "requests": requests,
        "deadline_miss": misses,
        "deadline_miss_rate": (misses / requests) if requests else 0.0,
        "fallthrough": counters.get("router.fallthrough", 0),
        "infeasible": counters.get("router.infeasible", 0),
        "regret_ms": histograms.get("router.regret_ms", {"count": 0}),
        "prediction_error_ms": prediction_error,
    }
