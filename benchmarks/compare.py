"""Compare perfbench runs of a parent tree against a change, metric by metric.

Each input file holds the last-line JSON object of one perfbench run
per line (``python3 perfbench/run.py ... | tail -n 1 >> FILE``).  For
every end-to-end metric that ``BENCHMARK.json`` lists, the script
prints the parent's median and interquartile range, the change's
median, the relative change of the medians, and whether that change
crosses the metric's bound in the worse direction.  Runs of
``--workload all`` carry ``<workload>/<metric>`` keys and get one row
per workload.

Usage::

    python benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

Exit code 0 when no metric crosses its bound and every run is
``correct``; 1 otherwise; 2 on unreadable or mismatched inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> List[dict]:
    """One perfbench result object per non-blank line."""
    runs = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if not runs:
        raise ValueError(f"{path} holds no runs")
    return runs


def series(runs: Sequence[dict], bounded: Dict[str, dict]) -> Dict[str, List[float]]:
    """Values per metric key, for every key whose metric has a bound."""
    out: Dict[str, List[float]] = {}
    for run in runs:
        for key, metric in run["metrics"].items():
            if key.rsplit("/", 1)[-1] in bounded:
                out.setdefault(key, []).append(float(metric["value"]))
    return out


def relative_change(parent: float, change: float) -> float:
    if change == parent:
        return 0.0
    if parent == 0.0:
        return math.copysign(math.inf, change - parent)
    return (change - parent) / abs(parent)


def quartile_spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(
    parent_runs: Sequence[dict], change_runs: Sequence[dict], spec: dict
) -> Tuple[List[dict], bool]:
    """Rows of the comparison table and whether the change passes."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    parent = series(parent_runs, bounded)
    change = series(change_runs, bounded)
    if set(parent) != set(change):
        raise ValueError(
            f"metric keys differ: parent {sorted(parent)}, change {sorted(change)}"
        )
    rows = []
    for key in sorted(parent):
        metric = bounded[key.rsplit("/", 1)[-1]]
        before = statistics.median(parent[key])
        after = statistics.median(change[key])
        rel = relative_change(before, after)
        worse = rel if metric["better"] == "lower" else -rel
        rows.append(
            {
                "metric": key,
                "unit": metric["unit"],
                "parent": before,
                "parent_iqr": quartile_spread(parent[key]),
                "change": after,
                "relative": rel,
                "bound": metric["bound"],
                "crosses": worse > metric["bound"],
            }
        )
    correct = all(run.get("correct", False) for run in (*parent_runs, *change_runs))
    return rows, correct and not any(row["crosses"] for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent runs, one JSON object a line")
    parser.add_argument("change", type=Path, help="change runs, one JSON object a line")
    args = parser.parse_args(argv)
    try:
        parent_runs = load_runs(args.parent)
        change_runs = load_runs(args.change)
        rows, ok = compare(parent_runs, change_runs, json.loads(SPEC.read_text()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"runs: parent {len(parent_runs)}, change {len(change_runs)}")
    print(f"{'metric':32s} {'parent':>10s} {'IQR':>9s} {'change':>10s} {'rel':>8s}  bound")
    for row in rows:
        verdict = "CROSSES" if row["crosses"] else "ok"
        print(
            f"{row['metric']:32s} {row['parent']:10.4g} {row['parent_iqr']:9.3g} "
            f"{row['change']:10.4g} {row['relative']:+8.1%}  "
            f"{row['bound']:.0%} {verdict}"
        )
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        incorrect = sum(not run.get("correct", False) for run in runs)
        if incorrect:
            print(f"{side}: {incorrect} run(s) with correct=false")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
