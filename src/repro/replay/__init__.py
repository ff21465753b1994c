"""Workload replay: Zipfian request streams at production-like traffic.

The serving stack (thread scheduler, process pool, coalescing,
admission control, deadline chains) was benchmarked on workloads of a
few hundred requests; this package proves it at 10^5–10^6.  A replay
run streams Zipfian-duplicated MQO/join/SQL requests — generated
lazily from derived seeds, never materialized as a list — through
either scheduler backend at a configurable arrival rate, and reports
cache/coalescing hit rates, admission rejections, deadline-miss rate,
and client-side tail latency.

Entry points: ``python -m repro replay`` (CLI),
:func:`replay_stream` + :func:`run_replay` (library), the ``replay``
experiment, and ``benchmarks/run.py replay`` → ``BENCH_replay.json``.
"""

from .driver import ReplayReport, run_replay
from .stream import replay_stream, zipf_cumulative

__all__ = ["ReplayReport", "replay_stream", "run_replay", "zipf_cumulative"]
