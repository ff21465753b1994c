"""Process-tree CPU, peak RSS and host noise records.

The serving stack may span several processes (benchmark, ``repro serve``
gateway, pool workers).  CPU time and peak resident memory are summed
over the whole tree so work moved between processes still shows.

Two records tell a slow host from slow code: hypervisor steal from
``/proc/stat``, and :func:`reference_ms`, the time of a fixed
standard-library kernel that shares no code with the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

_TICKS = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    found = [pid]
    index = 0
    while index < len(found):
        parent = found[index]
        index += 1
        task_dir = Path(f"/proc/{parent}/task")
        try:
            tasks = list(task_dir.iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            found.extend(int(child) for child in children if int(child) not in found)
    return found


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process (all its threads), in seconds."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # fields after the parenthesised command name; utime/stime are 14/15
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def tree_cpu(root: int) -> Dict[int, float]:
    """CPU seconds of ``root`` and of every process below it."""
    usage: Dict[int, float] = {}
    for pid in descendants(root):
        try:
            usage[pid] = cpu_seconds(pid)
        except (OSError, ValueError):
            continue
    return usage


def tree_peak_rss_mb(root: int) -> Tuple[float, int]:
    """Peak RSS summed over ``root`` and every process below it, and their count."""
    total = 0.0
    count = 0
    for pid in descendants(root):
        try:
            total += peak_rss_mb(pid)
        except (OSError, ValueError):
            continue
        count += 1
    return total, count


def cpu_times(cpu: int) -> Tuple[int, int]:
    """(steal, total) jiffies of one CPU, from its line of ``/proc/stat``."""
    label = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(label):
                # user nice system idle iowait irq softirq steal [guest guest_nice]
                fields = [int(value) for value in line.split()[1:9]]
                return fields[7], sum(fields)
    raise OSError(f"no {label.strip()} line in /proc/stat")


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of a CPU's time stolen by the hypervisor between two readings."""
    elapsed = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / elapsed if elapsed > 0 else 0.0


def _reference_kernel() -> int:
    data = {f"k{i}": [i, i * 0.5, str(i)] for i in range(200)}
    text = json.dumps(data, sort_keys=True)
    json.loads(text)
    total = len(hashlib.sha256(text.encode()).hexdigest())
    for i in range(4000):
        total += (i * 7) % 13
    return total


def reference_ms(repeats: int = 50) -> float:
    """Median milliseconds of a fixed pure-Python kernel (≈1 ms on a quiet host)."""
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - began)
    return 1e3 * statistics.median(samples)
