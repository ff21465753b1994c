"""Shared provenance block for every ``BENCH_*.json`` writer.

Benchmark artifacts are compared across commits, so each one must say
*where* it was measured: interpreter, platform, core count, and the
exact commit.  Every ``benchmarks/bench_*.py`` script writes its report
through :func:`write_report`, which stamps :func:`provenance_block`
under the ``"provenance"`` key; keeping the block and the file layout
in one place means the writers cannot drift apart in what they record.

The scripts are run as ``python benchmarks/bench_x.py``, which puts
this directory on ``sys.path`` — they import this module directly
(``from provenance import write_report``).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from typing import Any, Dict, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

__all__ = ["provenance_block", "report_path", "write_report"]


def _git_commit() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def provenance_block() -> Dict[str, object]:
    """The machine/commit fingerprint stamped into every benchmark JSON."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def report_path(output: Optional[str], smoke: bool, name: str) -> Optional[pathlib.Path]:
    """Where a run writes its report: ``--output`` when given, else the
    committed ``name`` at the repository root for a full run.  A smoke
    run without ``--output`` gets ``None`` and writes nothing, so CI and
    local smokes never overwrite the full-run artifact."""
    if output:
        return pathlib.Path(output)
    return None if smoke else REPO_ROOT / name


def write_report(
    path, benchmark: str, config: Dict[str, Any], body: Dict[str, Any]
) -> None:
    """Write ``{"benchmark", "config", "provenance", **body}`` to ``path``
    (nothing when ``path`` is ``None``, see :func:`report_path`)."""
    if path is None:
        print("smoke run: no report written (pass --output to keep one)")
        return
    report = {
        "benchmark": benchmark,
        "config": config,
        "provenance": provenance_block(),
        **body,
    }
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
