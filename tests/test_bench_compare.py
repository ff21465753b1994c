"""``benchmarks/compare.py`` on synthetic perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

SPEC = json.loads(compare.SPEC.read_text())


def run(correct=True, **values):
    """One perfbench result object; unnamed end-to-end metrics sit at 10."""
    metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    for name, value in values.items():
        metrics[name]["value"] = value
    return {"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
            "metrics": metrics}


def write(path, runs):
    path.write_text("".join(json.dumps(r) + "\n" for r in runs))
    return str(path)


def rows_by_metric(parent, change):
    rows, ok = compare.compare(parent, change, SPEC)
    return {row["metric"]: row for row in rows}, ok


def test_gain_within_bounds_passes(tmp_path, capsys):
    parent = [run(cpu_ms_per_req=v) for v in (20.0, 22.0, 21.0)]
    change = [run(cpu_ms_per_req=v) for v in (12.0, 15.0, 11.0)]
    rows, ok = rows_by_metric(parent, change)
    assert ok
    assert rows["cpu_ms_per_req"]["parent"] == 21.0
    assert rows["cpu_ms_per_req"]["change"] == 12.0
    assert rows["cpu_ms_per_req"]["relative"] == pytest.approx(-9 / 21)
    assert compare.main([write(tmp_path / "p", parent), write(tmp_path / "c", change)]) == 0
    assert "cpu_ms_per_req" in capsys.readouterr().out


@pytest.mark.parametrize(
    "metric, before, after, crosses",
    [
        ("cpu_ms_per_req", 10.0, 12.6, True),  # lower is better, +26% > 25%
        ("cpu_ms_per_req", 10.0, 12.4, False),
        ("peak_rss_mb", 100.0, 111.0, True),  # 10% bound
        ("slo_attainment", 1.0, 0.94, True),  # higher is better, -6% > 5%
        ("slo_attainment", 0.9, 1.0, False),
    ],
)
def test_bound_applies_in_the_worse_direction(metric, before, after, crosses):
    rows, ok = rows_by_metric([run(**{metric: before})], [run(**{metric: after})])
    assert rows[metric]["crosses"] is crosses
    assert ok is not crosses


def test_incorrect_run_fails(tmp_path):
    parent = write(tmp_path / "p", [run()])
    change = write(tmp_path / "c", [run(), run(correct=False)])
    assert compare.main([parent, change]) == 1


def test_workload_prefixed_keys_and_mismatch(tmp_path):
    def combined(value):
        out = run(cpu_ms_per_req=value)
        out["metrics"] = {f"cold-solve/{k}": v for k, v in out["metrics"].items()}
        return out

    rows, ok = rows_by_metric([combined(10.0)], [combined(20.0)])
    assert rows["cold-solve/cpu_ms_per_req"]["crosses"] and not ok
    parent = write(tmp_path / "p", [combined(10.0)])
    change = write(tmp_path / "c", [run()])
    assert compare.main([parent, change]) == 2
