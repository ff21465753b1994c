"""Online per-solver cost model: runtime and validity predictions.

One tiny normalized-LMS regressor per ``(solver, kind)`` pair maps the
request features (:func:`repro.routing.features.extract_features`) to a
predicted runtime.  The regression runs in ``log1p(milliseconds)``
space so polynomial runtime growth is near-linear in the ``log1p``
feature inputs, and so one slow outlier cannot fling the weights —
exactly the trick the adaptive-filter literature uses for heavy-tailed
targets.

The model is *seeded* with priors calibrated from this repository's
recorded benchmarks (stage latencies from the 64-request serving
benchmark of commit 35c5f5e: hybrid ≈ 8 ms, tabu ≈ 2 ms, sa ≈ 1.5 ms,
greedy ≈ 0.4 ms on serving-sized problems)
and *updated online* from every observed stage outcome, converging to
the deployment's true latencies within tens of requests (pinned by a
hypothesis property).  :meth:`warm_from_stats` re-seeds the bias from a
recorded ``stats()`` snapshot, so a restarted service starts from its
predecessor's measurements rather than the shipped priors.

For multi-process serving the model is **mergeable** exactly like
:class:`repro.service.metrics.Metrics`: workers ship :meth:`state`,
the parent folds them with :meth:`merge_state` (observation-count
weighted averages), so the aggregated report reflects every worker's
learning.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.routing.features import FEATURE_NAMES, ProblemFeatures

__all__ = ["DEFAULT_PRIORS", "SolverCostModel", "default_cost_model"]

#: runtime priors as (bias, log-variables slope) in log1p-ms space,
#: zeros for the remaining features; calibrated from the stage latencies
#: of the 64-request serving benchmark of commit 35c5f5e so that on
#: serving-sized problems (~20 variables) hybrid ≻ tabu ≻ sa ≻ greedy
#: both in cost and in predicted runtime
DEFAULT_PRIORS: Mapping[str, Tuple[float, float]] = {
    "hybrid": (-0.24, 0.80),
    "tabu": (-1.00, 0.70),
    "sa": (-1.20, 0.70),
    "greedy": (-1.20, 0.50),
    # fleet-mode hybrid: per-shard anneals plus the reconciliation pass
    # make it the costliest stage until observed runtimes say otherwise
    "fleet": (0.10, 0.85),
}

#: prior for solvers without recorded benchmarks: assume expensive, so
#: the router only prefers them once real observations justify it
_GENERIC_PRIOR: Tuple[float, float] = (0.50, 1.00)

#: validity prior: chain candidates almost always produce valid plans
#: on serving-sized problems; observations pull this per deployment
_VALIDITY_PRIOR = 0.9

#: clamp on the linear predictor, keeping expm1 finite (≈ 1e13 ms)
_Z_CLAMP = 30.0

#: wildcard kind under which warm starts apply to every problem kind
_ANY_KIND = "*"


def _prior_weights(solver: str) -> List[float]:
    bias, slope = DEFAULT_PRIORS.get(solver, _GENERIC_PRIOR)
    weights = [0.0] * len(FEATURE_NAMES)
    weights[0] = bias
    weights[1] = slope
    return weights


class SolverCostModel:
    """Mergeable online runtime/validity model over solver names.

    Thread-safe; every public method takes the internal lock, so a
    service may predict and observe from concurrent request threads.
    """

    def __init__(
        self, learning_rate: float = 0.5, validity_smoothing: float = 0.25
    ) -> None:
        self.learning_rate = float(learning_rate)
        self.validity_smoothing = float(validity_smoothing)
        self._lock = threading.Lock()
        #: key "solver|kind" → regression weights over FEATURE_NAMES
        self._weights: Dict[str, List[float]] = {}
        self._counts: Dict[str, int] = {}
        #: key "solver|kind" → EWMA of observed validity in [0, 1]
        self._validity: Dict[str, float] = {}
        self._validity_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _key(solver: str, kind: str) -> str:
        return f"{solver}|{kind}"

    def _weights_for(self, solver: str, kind: str) -> List[float]:
        """Weights for a key, cloning the wildcard warm start or prior."""
        key = self._key(solver, kind)
        weights = self._weights.get(key)
        if weights is None:
            warm = self._weights.get(self._key(solver, _ANY_KIND))
            weights = list(warm) if warm is not None else _prior_weights(solver)
            self._weights[key] = weights
            self._counts.setdefault(key, 0)
        return weights

    # ------------------------------------------------------------------
    def predict_runtime_ms(
        self, solver: str, kind: str, features: ProblemFeatures
    ) -> float:
        """Predicted wall-clock for one stage, finite and >= 0."""
        x = features.vector()
        with self._lock:
            weights = self._weights_for(solver, kind)
            z = sum(w * xi for w, xi in zip(weights, x))
        z = max(-_Z_CLAMP, min(_Z_CLAMP, z))
        return max(0.0, math.expm1(z))

    def predict_validity(self, solver: str, kind: str) -> float:
        """EWMA probability that the stage yields a valid plan."""
        with self._lock:
            return self._validity.get(self._key(solver, kind), _VALIDITY_PRIOR)

    def observe(
        self,
        solver: str,
        kind: str,
        features: ProblemFeatures,
        runtime_ms: float,
        valid: Optional[bool] = None,
    ) -> None:
        """Fold one observed stage outcome into the model.

        Normalized LMS in log1p space: for fixed features the
        prediction error contracts by ``1 - learning_rate`` per
        observation, so repeated sightings of a workload converge
        geometrically to its true runtime.  Non-finite observations are
        ignored rather than poisoning the weights.
        """
        runtime_ms = float(runtime_ms)
        if not math.isfinite(runtime_ms) or runtime_ms < 0.0:
            return
        x = features.vector()
        target = math.log1p(runtime_ms)
        key = self._key(solver, kind)
        with self._lock:
            weights = self._weights_for(solver, kind)
            z = sum(w * xi for w, xi in zip(weights, x))
            error = target - z
            norm = sum(xi * xi for xi in x)
            gain = self.learning_rate * error / (1e-9 + norm)
            for index, xi in enumerate(x):
                weights[index] += gain * xi
            self._counts[key] = self._counts.get(key, 0) + 1
            if valid is not None:
                current = self._validity.get(key, _VALIDITY_PRIOR)
                self._validity[key] = current + self.validity_smoothing * (
                    (1.0 if valid else 0.0) - current
                )
                self._validity_counts[key] = self._validity_counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    def warm_from_stats(self, stats: Mapping[str, Any]) -> int:
        """Seed biases from a recorded ``stats()`` snapshot.

        Each ``stage_seconds.<solver>`` histogram with observations
        becomes a wildcard warm start: the prior slope is kept and the
        bias is shifted so the model predicts the recorded mean latency
        for a reference serving-sized problem.  Returns the number of
        solvers warmed.
        """
        histograms = stats.get("histograms", {})
        reference = math.log1p(20.0)  # ~serving-sized problem
        warmed = 0
        with self._lock:
            for name, hist in histograms.items():
                if not name.startswith("stage_seconds."):
                    continue
                count = int(hist.get("count", 0))
                mean = hist.get("mean")
                if count <= 0 or mean is None:
                    continue
                solver = name.split(".", 1)[1]
                weights = _prior_weights(solver)
                weights[0] = math.log1p(max(0.0, float(mean) * 1000.0)) - (
                    weights[1] * reference
                )
                key = self._key(solver, _ANY_KIND)
                self._weights[key] = weights
                self._counts[key] = count
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Raw mergeable state (JSON-safe), mirroring ``Metrics.state``."""
        with self._lock:
            return {
                "runtime": {
                    key: {
                        "weights": list(weights),
                        "count": self._counts.get(key, 0),
                    }
                    for key, weights in self._weights.items()
                },
                "validity": {
                    key: {
                        "value": value,
                        "count": self._validity_counts.get(key, 0),
                    }
                    for key, value in self._validity.items()
                },
            }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold another model's state in (count-weighted averages)."""
        with self._lock:
            for key, entry in state.get("runtime", {}).items():
                other_w = [float(v) for v in entry.get("weights", ())]
                other_c = int(entry.get("count", 0))
                mine_w = self._weights.get(key)
                mine_c = self._counts.get(key, 0)
                if mine_w is None:
                    self._weights[key] = list(other_w)
                    self._counts[key] = other_c
                    continue
                total = mine_c + other_c
                if total <= 0:
                    continue
                self._weights[key] = [
                    (mw * mine_c + ow * other_c) / total
                    for mw, ow in zip(mine_w, other_w)
                ]
                self._counts[key] = total
            for key, entry in state.get("validity", {}).items():
                other_v = float(entry.get("value", _VALIDITY_PRIOR))
                other_c = int(entry.get("count", 0))
                mine_c = self._validity_counts.get(key, 0)
                if key not in self._validity:
                    self._validity[key] = other_v
                    self._validity_counts[key] = other_c
                    continue
                total = mine_c + other_c
                if total <= 0:
                    continue
                self._validity[key] = (
                    self._validity[key] * mine_c + other_v * other_c
                ) / total
                self._validity_counts[key] = total

    @classmethod
    def merge_states(cls, states: Iterable[Mapping[str, Any]]) -> "SolverCostModel":
        model = cls()
        for state in states:
            model.merge_state(state)
        return model

    def snapshot(self) -> Dict[str, Any]:
        """Human-oriented summary for ``stats()`` reports."""
        with self._lock:
            keys = sorted(set(self._weights) | set(self._validity))
            return {
                key: {
                    "observations": self._counts.get(key, 0),
                    "weights": [round(w, 6) for w in self._weights.get(key, [])],
                    "validity": round(
                        self._validity.get(key, _VALIDITY_PRIOR), 6
                    ),
                }
                for key in keys
            }


def default_cost_model() -> SolverCostModel:
    """A fresh model holding only the shipped benchmark priors."""
    return SolverCostModel()
