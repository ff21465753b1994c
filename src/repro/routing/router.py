"""The per-request router: deadline-aware chain order and budget split.

Given the request features and its deadline, :meth:`RoutingPolicy.decide`
asks the cost model for every candidate stage's predicted runtime and
builds the chain for *this* request:

* candidates predicted to finish within the deadline keep the static
  chain's quality order (the static chain is ordered strongest-first,
  so among feasible stages the best solver still goes first);
* candidates predicted to blow the deadline are appended as a safety
  net, cheapest first, with epsilon budget weight — they only run when
  every feasible stage failed, at which point leftover budget rolls
  forward to them anyway;
* when *nothing* is predicted to fit, the whole chain is ordered
  cheapest-first, maximizing the chance any stage answers at all.

Budget weights are the predicted runtimes bucketed to powers of two,
so each feasible stage's deadline share scales with how long it is
expected to need — while small online drifts of the model leave the
weights (and hence the routed policy key) untouched once predictions
are roughly converged.

By construction the router never puts a predicted-infeasible stage
first while a predicted-feasible candidate exists — that is the
``routing-regret`` invariant the verification sweep checks; its planted
bug (``--inject router``) hands the router a cost model that predicts
every stage ~20x too fast.

:meth:`RoutingPolicy.observe` closes the loop: every executed stage's
measured runtime and validity update the model online, and the
request-level routing metrics (prediction error per solver, regret,
deadline misses, fallthroughs) land in the service's ``Metrics`` so
multi-process serving merges them like every other counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.routing.features import ProblemFeatures
from repro.routing.model import SolverCostModel, default_cost_model
from repro.service.chain import FALLBACK_STAGE, StageSpec, default_policy

__all__ = [
    "RoutingDecision",
    "RoutingPolicy",
    "merge_router_states",
    "routing_section",
]

#: epsilon budget weight (ms-equivalent) for safety-net stages
_MIN_STAGE_WEIGHT = 0.05


def _weight_bucket(predicted_ms: float) -> float:
    """Power-of-two bucket of a predicted runtime (budget weight).

    Buckets quantize predictions to within ±41%, so the routed policy
    stays bit-stable under the small per-observation weight drift of
    online learning,
    while still giving slow stages proportionally bigger deadline
    shares.
    """
    clamped = min(max(predicted_ms, _MIN_STAGE_WEIGHT), 1e6)
    return float(2.0 ** round(math.log2(clamped)))


@dataclass(frozen=True)
class RoutingDecision:
    """One routed chain plus everything needed to audit it later."""

    #: the chain this request will run, weights = budget split
    policy: Tuple[StageSpec, ...]
    #: (solver, predicted runtime ms) for every candidate, decision order
    predicted_ms: Tuple[Tuple[str, float], ...]
    #: the router's belief about when the first stage completes
    predicted_completion_ms: float
    #: True when at least one candidate was predicted to fit
    feasible: bool
    deadline_ms: float
    features: ProblemFeatures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chain": [spec.solver for spec in self.policy],
            "predicted_ms": {s: round(p, 4) for s, p in self.predicted_ms},
            "predicted_completion_ms": round(self.predicted_completion_ms, 4),
            "feasible": self.feasible,
            "deadline_ms": self.deadline_ms,
        }


class RoutingPolicy:
    """Decide a chain per request; learn from what actually happened."""

    def __init__(
        self,
        candidates: Optional[Sequence[StageSpec]] = None,
        model: Optional[SolverCostModel] = None,
        headroom: float = 0.8,
    ) -> None:
        #: candidate stages in *quality* order (strongest first); the
        #: static default chain is already ordered that way
        self.candidates: Tuple[StageSpec, ...] = (
            tuple(candidates) if candidates is not None else default_policy()
        )
        self.model = model if model is not None else default_cost_model()
        #: fraction of the deadline a stage may be predicted to use and
        #: still count as fitting — the slack absorbs prediction error,
        #: compile/decode overhead outside the stage clock, and leaves
        #: room for a rescue stage when the leader fails
        self.headroom = float(headroom)

    # ------------------------------------------------------------------
    def decide(self, features: ProblemFeatures, deadline_ms: float) -> RoutingDecision:
        """Pick the chain order and budget split for one request."""
        predictions = [
            (spec, self.model.predict_runtime_ms(spec.solver, features.kind, features))
            for spec in self.candidates
        ]
        fits = [
            (spec, pred)
            for spec, pred in predictions
            if pred <= self.headroom * deadline_ms
            # a stage that has been producing invalid plans for this
            # problem kind cannot "fit" no matter how fast it is — it
            # would just burn budget before the chain falls through
            and self.model.predict_validity(spec.solver, features.kind) >= 0.5
        ]
        if fits:
            misses = sorted(
                (entry for entry in predictions if entry not in fits),
                key=lambda entry: entry[1],
            )
            ordered = fits + misses
            feasible = True
        else:
            ordered = sorted(predictions, key=lambda entry: entry[1])
            feasible = False

        n_fits = len(fits)
        stages = tuple(
            replace(
                spec,
                weight=_weight_bucket(pred)
                if (not feasible or index < n_fits)
                else _MIN_STAGE_WEIGHT,
            )
            for index, (spec, pred) in enumerate(ordered)
        )
        return RoutingDecision(
            policy=stages,
            predicted_ms=tuple((spec.solver, pred) for spec, pred in ordered),
            predicted_completion_ms=ordered[0][1],
            feasible=feasible,
            deadline_ms=float(deadline_ms),
            features=features,
        )

    # ------------------------------------------------------------------
    def observe(self, decision: RoutingDecision, outcome, metrics=None) -> None:
        """Fold one executed chain outcome back into the model.

        ``outcome`` is the :class:`repro.service.chain.ChainOutcome`
        the decision's chain produced; ``metrics`` (optional) is the
        owning service's :class:`repro.service.metrics.Metrics`, which
        receives the ``router.*`` counters and histograms so the
        process pool aggregates them for free.
        """
        kind = decision.features.kind
        predicted = dict(decision.predicted_ms)
        for entry in outcome.stage_trace:
            stage = entry.get("stage")
            if stage is None or stage == FALLBACK_STAGE:
                continue
            observed_ms = float(entry.get("seconds", 0.0)) * 1000.0
            pred = predicted.get(stage)
            if entry.get("truncated") and pred is not None and observed_ms <= pred:
                # budget-truncated run: the runtime is only a lower
                # bound, so letting it *lower* the prediction would
                # teach the model that slow stages fit tight deadlines
                continue
            self.model.observe(
                stage, kind, decision.features, observed_ms, valid=entry.get("valid")
            )
            if metrics is not None and pred is not None:
                metrics.observe(
                    f"router.prediction_error_ms.{stage}", abs(observed_ms - pred)
                )
        if metrics is None:
            return
        metrics.incr("router.requests")
        elapsed_ms = float(outcome.seconds) * 1000.0
        metrics.observe(
            "router.regret_ms",
            max(0.0, elapsed_ms - decision.predicted_completion_ms),
        )
        if outcome.deadline_exceeded:
            metrics.incr("router.deadline_miss")
        if not decision.feasible:
            metrics.incr("router.infeasible")
        if decision.policy and outcome.served_by != decision.policy[0].solver:
            metrics.incr("router.fallthrough")

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        return self.model.state()

    def merge_state(self, state: Mapping[str, Any]) -> None:
        self.model.merge_state(state)


def routing_section(
    metrics_snapshot: Mapping[str, Any],
    model_snapshot: Optional[Mapping[str, Any]] = None,
    candidates: Iterable[str] = (),
) -> Dict[str, Any]:
    """The ``stats()["routing"]`` block from merged metrics + model.

    Shared by the single-process service and the process pool so both
    backends report the same shape: deadline-miss rate, per-solver
    prediction error, regret, and the learned model summary.
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
    section: Dict[str, Any] = {
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
    if model_snapshot is not None:
        section["model"] = dict(model_snapshot)
    return section


def merge_router_states(states: Iterable[Mapping[str, Any]]) -> SolverCostModel:
    """Fold per-worker router model states into one model (pool stats)."""
    return SolverCostModel.merge_states(states)
