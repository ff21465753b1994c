"""The ``benchmarks/bench_*.py`` scripts leave committed artifacts alone
on smoke runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sql_smoke_leaves_committed_report_untouched(tmp_path):
    committed = ROOT / "BENCH_sql.json"
    before = committed.read_bytes()
    script = str(ROOT / "benchmarks" / "bench_sql.py")
    out = tmp_path / "smoke.json"
    try:
        bare = subprocess.run(
            [sys.executable, script, "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert bare.returncode == 0, bare.stderr
        assert committed.read_bytes() == before
        explicit = subprocess.run(
            [sys.executable, script, "--smoke", "--output", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert explicit.returncode == 0, explicit.stderr
        assert committed.read_bytes() == before
        assert '"smoke": true' in out.read_text()
    finally:
        committed.write_bytes(before)
