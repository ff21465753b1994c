"""Lightweight in-process metrics for the optimization service.

Counters and latency histograms behind one lock, cheap enough to sit
on the request hot path.  :meth:`Metrics.snapshot` returns a plain
nested dictionary (JSON-ready via :func:`repro.serialization.to_jsonable`)
so the CLI can dump a stats block after a run and tests can assert on
exact counter values.

Percentiles use the nearest-rank method on the recorded values; the
per-histogram sample buffer keeps the first 65536 observations and
drops later ones, to bound memory on long-lived services.  Long runs
do reach the cap: a full replay benchmark on the thread backend records
100,000 latencies in one service's ``latency_ms``, so that snapshot's
percentiles cover only the first 65536.  The replay report's client-side
percentiles come from the driver's own 200,000-value histogram
(:func:`repro.replay.run_replay`) instead.  ROADMAP item 4 replaces
the buffer with mergeable fixed buckets.

For multi-process serving (:mod:`repro.server.pool`) metrics must be
*mergeable*: each worker process keeps its own :class:`Metrics`, ships
the raw :meth:`Metrics.state` (counters plus histogram reservoirs, not
pre-summarized percentiles) to the parent, and the parent folds every
worker into one report with :func:`merge_metric_states`.  Merging raw
states rather than snapshots is what keeps aggregated percentiles
exact: a p50 of per-worker p50s would be meaningless, whereas the
merged reservoir recomputes the true rank statistics.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["Histogram", "Metrics", "merge_metric_states", "percentile"]

_DEFAULT_CAPACITY = 65536


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class Histogram:
    """A bounded reservoir of observations with summary statistics."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max: Optional[float] = None
        self._min: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._total += value
        self._max = value if self._max is None else max(self._max, value)
        self._min = value if self._min is None else min(self._min, value)
        if len(self._values) < self.capacity:
            self._values.append(value)

    def snapshot(self) -> Dict[str, float]:
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self._total / self._count,
            "min": self._min,
            "max": self._max,
            "p50": percentile(self._values, 50.0),
            "p95": percentile(self._values, 95.0),
            "p99": percentile(self._values, 99.0),
        }

    # -- cross-process merging -----------------------------------------
    def state(self) -> Dict[str, Any]:
        """Raw, mergeable state (JSON-safe): exact moments + reservoir."""
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "values": list(self._values),
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Counts, totals and extrema merge exactly; the reservoir
        concatenates up to this histogram's capacity (exact whenever the
        combined observation count fits, which covers every workload the
        bench drivers produce).
        """
        self._count += int(state["count"])
        self._total += float(state["total"])
        for bound, pick in (("max", max), ("min", min)):
            other = state.get(bound)
            if other is not None:
                ours = getattr(self, f"_{bound}")
                setattr(
                    self,
                    f"_{bound}",
                    float(other) if ours is None else pick(ours, float(other)),
                )
        room = self.capacity - len(self._values)
        if room > 0:
            self._values.extend(float(v) for v in state.get("values", ())[:room])


class Metrics:
    """Thread-safe named counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.record(value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def reset(self) -> None:
        """Drop all counters and histograms (post-warmup zeroing)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """All counters and histogram summaries, sorted by name."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "histograms": {
                    k: self._histograms[k].snapshot()
                    for k in sorted(self._histograms)
                },
            }

    # -- cross-process merging -----------------------------------------
    def state(self) -> Dict[str, Dict]:
        """Raw mergeable state: counters plus histogram reservoirs."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: histogram.state()
                    for name, histogram in self._histograms.items()
                },
            }

    def merge_state(self, state: Dict[str, Dict]) -> None:
        """Fold another :class:`Metrics`'s :meth:`state` into this one."""
        with self._lock:
            for name, amount in state.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(amount)
            for name, hist_state in state.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.merge_state(hist_state)


def merge_metric_states(states: Iterable[Dict[str, Dict]]) -> "Metrics":
    """One :class:`Metrics` holding the union of many raw states.

    This is how the process-pool scheduler aggregates per-worker
    counters and latency reservoirs into the single report that
    ``stats()`` exposes — counters sum, histograms recompute their
    percentiles over the combined observations.
    """
    merged = Metrics()
    for state in states:
        merged.merge_state(state)
    return merged
