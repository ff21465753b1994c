"""Thread-safe LRU cache for compiled problems.

Keyed by problem content hashes (the harness's fingerprinting
approach — SHA-256 over canonical JSON): problem fingerprint → problem
adapter holding the built QUBO and its compiled arrays, so repeated
requests for the same instance skip QUBO construction entirely.

Served results are cached once, in the scheduler
(:class:`repro.service.core.SchedulerBase`), not here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional

__all__ = ["CompilationCache", "LruSection", "merge_cache_stats"]

#: compiled adapters each service keeps
COMPILED_CAPACITY = 256


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
    """The compiled-problem LRU behind a lock (``COMPILED_CAPACITY`` entries)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._compiled = LruSection(COMPILED_CAPACITY)

    def get_compiled(self, fingerprint: str) -> Optional[Any]:
        with self._lock:
            return self._compiled.get(fingerprint)

    def put_compiled(self, fingerprint: str, adapter: Any) -> None:
        with self._lock:
            self._compiled.put(fingerprint, adapter)

    def stats(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"compiled": self._compiled.stats()}

    def reset_counters(self) -> None:
        """Zero hit/miss counters but keep the cached entries.

        Worker warmup compiles problems through the normal path; this
        lets the entries stay warm while the serving report starts from
        clean counters.
        """
        with self._lock:
            self._compiled.hits = 0
            self._compiled.misses = 0


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
