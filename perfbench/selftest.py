"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The correctness check accepts the service's own replies and rejects
   tampered ones: a wrong cost, an order that is not a permutation, an
   MQO selection missing a query, a rejection and a transport error.
2. A smoke-size run of every workload, with tracing off and on, exits 0
   and prints every metric ``BENCHMARK.json`` names, each finite.
3. Run from a directory holding only ``BENCHMARK.json`` and the
   benchmark's files (no program sources), it exits non-zero without
   printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SMOKE_SECONDS = "1"


def _costlier_order(template, order, cost):
    """A valid permutation of ``order`` whose true cost is not ``cost``."""
    for i in range(len(order) - 1, 0, -1):
        swapped = order[:i - 1] + [order[i], order[i - 1]] + order[i + 1:]
        if template.recompute_cost({"order": swapped}) != cost:
            return swapped
    raise AssertionError("every adjacent swap keeps the cost")


def check_tampering() -> list:
    from perfbench.bench import check_outcomes
    from perfbench.loadgen import error_outcome, outcome_from_result
    from perfbench.workloads import WORKLOADS, Traffic
    from repro.service import OptimizationService

    problems = []
    service = OptimizationService(seed=3)
    for name in ("hot-http", "sql-repeat"):
        traffic = Traffic(WORKLOADS[name], seed=3)
        traffic.extend(400)
        kinds = {}
        for template in traffic.templates:
            kinds.setdefault(template.kind, template.index)
        for kind, index in sorted(kinds.items()):
            result = service.optimize(traffic.requests[index])
            honest = outcome_from_result(index, 0.0, 0.001, result)
            tampered = [honest._replace(cost=honest.cost * 1.01),
                        honest._replace(status="rejected"),
                        error_outcome(index, 0.0, 0.001, ConnectionError("reset"))]
            if kind == "mqo":
                selected = list(honest.plan["selected_plans"])
                tampered.append(honest._replace(plan={"selected_plans": selected[1:]}))
            else:
                order = list(honest.plan["order"])
                tampered.append(honest._replace(plan={"order": order[:-1] + order[:1]}))
                tampered.append(honest._replace(plan={"order": _costlier_order(
                    traffic.templates[index], order, honest.cost)}))
            verdicts = check_outcomes(traffic, [honest] + tampered)
            if verdicts[0] is not None:
                problems.append(f"{name}/{kind}: honest reply rejected: {verdicts[0]}")
            problems += [f"{name}/{kind}: tampered reply accepted: {outcome}"
                         for outcome, why in zip(tampered, verdicts[1:]) if why is None]
            print(f"tamper check {name}/{kind}: {len(tampered)} tampered replies")
    return problems


def check_smoke(spec: dict) -> list:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            completed = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", "5", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            label = f"smoke {workload} --trace {trace}"
            if completed.returncode != 0:
                problems.append(f"{label}: exit {completed.returncode}\n{completed.stdout[-3000:]}"
                                f"{completed.stderr[-3000:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or not math.isfinite(got["value"]) or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} is {got}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} requests, {result['failed']} failed")
    return problems


def check_without_sources(spec: dict) -> list:
    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {completed.returncode}")
    if completed.returncode == 0 or '"metrics"' in completed.stdout:
        return ["run without program sources did not fail cleanly"]
    return []


def main() -> int:
    sys.path[:1] = [str(SRC), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_tampering() + check_without_sources(spec) + check_smoke(spec)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
