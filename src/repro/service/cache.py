"""Thread-safe LRU caches for compiled problems and served results.

Two sections, both keyed by content hashes (the harness's
fingerprinting approach — SHA-256 over canonical JSON):

* **compiled** — problem fingerprint → problem adapter holding the
  built QUBO, so repeated requests for the same instance skip QUBO
  construction entirely;
* **results** — (fingerprint, solve seed, policy) → the served plan,
  so an identical request is answered from memory.  Because solve
  seeds derive from problem content (see
  :meth:`repro.service.core.OptimizationService.optimize`), a result
  restored from this cache is bit-identical to what the fallback chain
  would recompute — reuse never changes plans or stage assignments,
  which keeps concurrent runs reproducible.  Results that were
  deadline-truncated are not stored, so only deterministic outcomes
  propagate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional

__all__ = ["CompilationCache", "LruSection", "merge_cache_stats"]


class LruSection:
    """One bounded LRU map (not thread-safe on its own)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self.entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Any]:
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def stats(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "size": len(self.entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


class CompilationCache:
    """Compiled-problem and served-result cache behind one lock."""

    def __init__(self, compiled_capacity: int = 256, result_capacity: int = 1024) -> None:
        self._lock = threading.Lock()
        self._compiled = LruSection(compiled_capacity)
        self._results = LruSection(result_capacity)

    # -- compiled adapters ---------------------------------------------
    def get_compiled(self, fingerprint: str) -> Optional[Any]:
        with self._lock:
            return self._compiled.get(fingerprint)

    def put_compiled(self, fingerprint: str, adapter: Any) -> None:
        with self._lock:
            self._compiled.put(fingerprint, adapter)

    # -- served results ------------------------------------------------
    def get_result(self, key: str) -> Optional[Any]:
        with self._lock:
            return self._results.get(key)

    def put_result(self, key: str, outcome: Any) -> None:
        with self._lock:
            self._results.put(key, outcome)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "compiled": self._compiled.stats(),
                "results": self._results.stats(),
            }

    def clear(self) -> None:
        with self._lock:
            self._compiled.entries.clear()
            self._results.entries.clear()

    def reset_counters(self) -> None:
        """Zero hit/miss counters but keep the cached entries.

        Worker warmup compiles problems through the normal path; this
        lets the entries stay warm while the serving report starts from
        clean counters.
        """
        with self._lock:
            for section in (self._compiled, self._results):
                section.hits = 0
                section.misses = 0


def merge_cache_stats(
    stats_list: Iterable[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Aggregate per-process :meth:`CompilationCache.stats` snapshots.

    Sizes, capacities, hits and misses sum across workers (each worker
    process owns an independent cache, so the fleet's total capacity is
    the sum) and the hit rate is recomputed from the summed lookups —
    never averaged, which would weight idle workers equally with busy
    ones.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for stats in stats_list:
        for section, values in stats.items():
            into = merged.setdefault(
                section, {"size": 0, "capacity": 0, "hits": 0, "misses": 0}
            )
            for key in ("size", "capacity", "hits", "misses"):
                into[key] += int(values.get(key, 0))
    for values in merged.values():
        lookups = values["hits"] + values["misses"]
        values["hit_rate"] = (values["hits"] / lookups) if lookups else 0.0
    return merged
