"""``benchmarks/run.py``: smoke runs leave committed artifacts alone,
reports carry their spread and provenance, and ``spread`` computes
quartiles the way the artifacts state."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "benchmarks" / "run.py"


def _load_runner():
    spec = importlib.util.spec_from_file_location("bench_runner", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["kernels", "sql", "replay", "routing"])
def test_smoke_leaves_committed_report_untouched(name, tmp_path):
    committed = {path: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}
    assert ROOT / f"BENCH_{name}.json" in committed
    out = tmp_path / "smoke.json"
    try:
        bare = subprocess.run(
            [sys.executable, str(RUNNER), name, "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert bare.returncode == 0, bare.stderr
        assert {path: path.read_bytes() for path in committed} == committed
        explicit = subprocess.run(
            [sys.executable, str(RUNNER), name, "--smoke", "--output", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert explicit.returncode == 0, explicit.stderr
        assert {path: path.read_bytes() for path in committed} == committed
    finally:
        for path, before in committed.items():
            path.write_bytes(before)
    report = json.loads(out.read_text())
    assert report["benchmark"] == name
    assert report["config"]["smoke"] is True
    assert report["config"]["repeats"] == 1
    assert isinstance(report["provenance"]["git_dirty"], bool)
    assert len(report["trials"]) == 1
    assert "trial_s" in report["timings"]
    for timing in report["timings"].values():
        assert set(timing) == {"median", "q1", "q3"}
        assert timing["q1"] <= timing["median"] <= timing["q3"]


def test_spread_hand_computed_quartiles():
    spread = _load_runner().spread
    assert spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert spread([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}
    assert spread([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5}
    with pytest.raises(ValueError):
        spread([])
