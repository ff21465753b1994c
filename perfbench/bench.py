"""One benchmark run: set up, warm, time a closed loop, check, report.

The phases of :func:`run_workload`:

1. **set-up** — launch the serving stack ``SETUP_LAUNCHES`` times and
   time each launch until it answers; the last launch is kept.
2. **warm** — compute every template's exact optimum, serve each
   template once (workloads with ``warm_templates``), then run the
   closed loop untimed for a short while.
3. **timed** — the closed loop for ``--seconds``.  Around it: the
   serving processes' CPU time, the host's steal time and the stack's
   ``stats()`` counters, so every count covers the timed phase only.
4. **check** — every reply of the warm and timed phases is checked by
   :mod:`perfbench.oracle`; optima of problems first seen in the timed
   phase are computed here, after timing.
5. **trace** (``--trace 1``) — :mod:`perfbench.layers` replays the
   workload in-process with timers around each layer.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import hostproc, layers
from perfbench.loadgen import Outcome, Sampler
from perfbench.stack import HttpStack, InprocStack, probe_inproc_setup
from perfbench.workloads import DEADLINE_MS, Traffic, Workload

#: launches per run; setup_s is their median
SETUP_LAUNCHES = 3
#: chain stages of the default policy, plus the classical fallback
STAGES = ("hybrid", "tabu", "sa", "greedy", "fallback")
#: a returned plan's cost ÷ optimum counts at most this much in plan_cost_ratio
PLAN_RATIO_CAP = 2.0
#: replies per block for latency_p99_ms (p99 of each block, median over blocks)
P99_BLOCK = 1000
#: length of the windows the timed phase is split into
WINDOW_SECONDS = 1.0
#: traced replay length as a share of --seconds
TRACE_SHARE = 0.3


@dataclass
class Metric:
    value: float
    unit: str
    #: sample count printed beside the value
    samples: int
    note: str = ""


@dataclass
class RunReport:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    host: Dict[str, Any] = field(default_factory=dict)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def block_p99(latencies: Sequence[float]) -> Tuple[float, int]:
    """Median over blocks of ``P99_BLOCK`` consecutive replies of each block's p99.

    Each block has at least ten samples beyond its p99, and one stalled
    second of the host moves one block, not the result.  Returns the
    value and the block count; the last block takes the remainder.
    """
    blocks = max(1, len(latencies) // P99_BLOCK)
    edges = [i * P99_BLOCK for i in range(blocks)] + [len(latencies)]
    values = [nearest_rank(latencies[a:b], 99) for a, b in zip(edges, edges[1:])]
    return statistics.median(values), blocks


def check_outcomes(traffic: Traffic, outcomes: Sequence[Outcome]) -> List[Optional[str]]:
    """Per outcome: ``None`` if it is an ``ok`` reply with a correct plan, else why not."""
    verdicts: List[Optional[str]] = []
    for outcome in outcomes:
        if outcome.error is not None:
            verdicts.append(outcome.error)
        elif outcome.status != "ok":
            verdicts.append(f"status {outcome.status}")
        elif not outcome.valid:
            verdicts.append("reply marks its plan invalid")
        else:
            verdicts.append(traffic.templates[outcome.template].check(outcome.plan, outcome.cost))
    return verdicts


def launch(workload: Workload, src: Path, seed: int) -> Tuple[Any, List[float]]:
    """Launch the stack ``SETUP_LAUNCHES`` times; keep the last one."""
    samples: List[float] = []
    if workload.transport == "http":
        for _ in range(SETUP_LAUNCHES - 1):
            probe = HttpStack(src, seed, workload.sessions)
            samples.append(probe.launch_seconds)
            probe.close()
        stack = HttpStack(src, seed, workload.sessions)
        samples.append(stack.launch_seconds)
        return stack, samples
    samples = [probe_inproc_setup(src, seed) for _ in range(SETUP_LAUNCHES)]
    return InprocStack(seed), samples


def _counter_delta(before: Dict, after: Dict) -> Dict[str, float]:
    old = before.get("counters", {})
    return {name: value - old.get(name, 0) for name, value in after.get("counters", {}).items()}


def _histogram_total_delta(before: Dict, after: Dict, name: str) -> float:
    def total(stats: Dict) -> float:
        summary = stats.get("histograms", {}).get(name, {})
        return summary.get("count", 0) * summary.get("mean", 0.0)

    return total(after) - total(before)


def _windows(marks, outcomes) -> Dict[str, List[float]]:
    """Per window between consecutive marks: steal %, replies and p50 ms."""
    windows: Dict[str, List[float]] = {"steal_pct": [], "replies": [], "p50_ms": []}
    for begin, end in zip(marks, marks[1:]):
        inside = [o.latency_ms for o in outcomes if begin[0] <= o.done < end[0]]
        windows["steal_pct"].append(round(hostproc.steal_pct(begin[1:3], end[1:3]), 1))
        windows["replies"].append(len(inside))
        windows["p50_ms"].append(round(nearest_rank(inside, 50), 3) if inside else None)
    return windows


def _hit_rate(hits: float, misses: float) -> Metric:
    lookups = hits + misses
    return Metric(hits / lookups if lookups else 0.0, "ratio", int(lookups))


def run_workload(
    workload: Workload, src: Path, seed: int, seconds: float, trace: bool, cpu: int
) -> RunReport:
    """One run; ``cpu`` is the CPU this process and its children are pinned to."""
    report = RunReport()
    warm_seconds = min(2.0, max(0.5, 0.1 * seconds))
    stack, setup_samples = launch(workload, src, seed)
    try:
        traffic = Traffic(workload, seed)
        if workload.warm_templates:
            traffic.extend(max(20_000, int(2_000 * (seconds + warm_seconds))))
            for template in traffic.templates:
                template.optimum()
            warm = stack.send_each(traffic, [t.index for t in traffic.templates])
        else:
            traffic.extend(int(60 * (seconds + warm_seconds)))
            warm = []
        if workload.transport == "http":
            stack.prepare(traffic)
        looped, position = stack.run(traffic, 0, warm_seconds)
        warm += looped

        stats_before = stack.stats()
        reference = [hostproc.reference_ms()]
        sampler = Sampler(WINDOW_SECONDS, cpu)
        sampler.mark()
        outcomes, position = stack.run(traffic, position, seconds, sampler)
        sampler.mark()
        reference.append(hostproc.reference_ms())
        rss_mb, processes = hostproc.tree_peak_rss_mb(os.getpid())
        stats_after = stack.stats()
    finally:
        stack.close()
    if not outcomes:
        raise RuntimeError("no reply completed in the timed phase")

    verdicts = check_outcomes(traffic, outcomes)
    report.attempted = len(outcomes)
    report.failures = [
        f"{phase} request on template {o.template}: {why}"
        for phase, pairs in (
            ("warm", zip(warm, check_outcomes(traffic, warm))),
            ("timed", zip(outcomes, verdicts)),
        )
        for o, why in pairs
        if why is not None
    ]
    good = [o for o, why in zip(outcomes, verdicts) if why is None]
    # one ratio per distinct problem, so a popular template counts once
    by_template: Dict[int, List[float]] = {}
    for o in good:
        by_template.setdefault(o.template, []).append(
            o.cost / traffic.templates[o.template].optimum())
    ratios = [statistics.mean(values) for values in by_template.values()]

    first, last = sampler.marks[0], sampler.marks[-1]
    steal = hostproc.steal_pct(first[1:3], last[1:3])
    report.host = {"cpu": cpu, "steal_pct": steal, "reference_ms": reference,
                   "processes": processes, "windows": _windows(sampler.marks, outcomes)}
    report.end_to_end = _end_to_end(
        outcomes, good, ratios, setup_samples, last[3] - first[3], rss_mb, processes)
    report.per_layer = _timed_layers(outcomes, good, ratios, stats_before, stats_after)
    report.per_layer["host.steal_pct"] = Metric(steal, "%", 1, f"cpu{cpu}, timed phase")
    report.per_layer["host.reference_ms"] = Metric(
        statistics.mean(reference), "ms", 2, "fixed stdlib kernel, before and after timing")
    if trace:
        traced, traced_failures = layers.traced_replay(
            workload, traffic, [o.template for o in outcomes], seed, TRACE_SHARE * seconds)
        report.per_layer.update((name, Metric(*values)) for name, values in traced.items())
        report.failures += traced_failures
    report.failed = len(report.failures)
    return report


def _end_to_end(outcomes, good, ratios, setup_samples, cpu_seconds, rss_mb, processes):
    n = len(outcomes)
    latencies = [o.latency_ms for o in outcomes]
    p99, blocks = block_p99(latencies)
    log_ratios = [math.log(min(ratio, PLAN_RATIO_CAP)) for ratio in ratios]
    return {
        "setup_s": Metric(statistics.median(setup_samples), "s", len(setup_samples)),
        "latency_p50_ms": Metric(nearest_rank(latencies, 50), "ms", n),
        "latency_p99_ms": Metric(
            p99, "ms", n,
            f"median of {blocks} block p99s, {n // blocks // 100} beyond each; no bound"),
        "cpu_ms_per_req": Metric(1e3 * cpu_seconds / n, "ms", n, f"{processes} processes"),
        "peak_rss_mb": Metric(rss_mb, "MB", processes, "processes summed"),
        "slo_attainment": Metric(
            sum(1 for o in good if o.latency_ms <= DEADLINE_MS) / n, "ratio", n),
        "plan_cost_ratio": Metric(
            math.exp(statistics.mean(log_ratios)) if log_ratios else float("nan"),
            "ratio", len(log_ratios),
            f"distinct problems, geometric mean vs exact optimum, capped at {PLAN_RATIO_CAP:g}"),
    }


def _timed_layers(outcomes, good, ratios, stats_before, stats_after):
    n = len(outcomes)
    counters = _counter_delta(stats_before, stats_after)
    coalesce = {
        name: stats_after.get("scheduler", {}).get("coalesce", {}).get(name, 0)
        - stats_before.get("scheduler", {}).get("coalesce", {}).get(name, 0)
        for name in ("hits", "misses")
    }
    ok_served = counters.get("requests_ok", 0)
    layer = {
        "scheduler.overhead_ms_p50": Metric(
            nearest_rank([o.latency_ms - o.elapsed_ms for o in good], 50) if good else 0.0,
            "ms", len(good)),
        "service.elapsed_ms_p50": Metric(
            nearest_rank([o.elapsed_ms for o in good], 50) if good else 0.0, "ms", len(good)),
        "cache.result_hit_rate": _hit_rate(
            counters.get("cache.result_hits", 0), counters.get("cache.result_misses", 0)),
        "cache.compile_hit_rate": _hit_rate(
            counters.get("cache.compile_hits", 0), counters.get("cache.compile_misses", 0)),
        "scheduler.coalesce_hit_rate": _hit_rate(coalesce["hits"], coalesce["misses"]),
    }
    for stage in STAGES:
        spent = _histogram_total_delta(stats_before, stats_after, f"stage_seconds.{stage}")
        layer[f"chain.stage_ms.{stage}"] = Metric(1e3 * spent / n, "ms", n, "per request")
    for stage in STAGES:
        layer[f"chain.served_by.{stage}"] = Metric(
            counters.get(f"served_by.{stage}", 0) / ok_served if ok_served else 0.0,
            "ratio", ok_served)
    layer["chain.deadline_exceeded"] = Metric(counters.get("deadline_exceeded", 0), "count", n)
    layer["chain.truncated_stages"] = Metric(sum(o.truncated for o in outcomes), "count", n)
    layer["plan.over_cap_share"] = Metric(
        sum(1 for ratio in ratios if ratio > PLAN_RATIO_CAP) / len(ratios) if ratios else 0.0,
        "ratio", len(ratios), f"distinct problems costing over {PLAN_RATIO_CAP:g}x the optimum")
    layer["requests.sent"] = Metric(n, "count", n)
    layer["requests.ok"] = Metric(len(good), "count", n)
    layer["requests.failed"] = Metric(n - len(good), "count", n)
    layer["requests.rejected"] = Metric(
        sum(1 for o in outcomes if o.status == "rejected"), "count", n)
    return layer
