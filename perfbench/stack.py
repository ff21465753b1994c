"""Launch, query and stop the serving stack under test.

Two shapes:

* :class:`InprocStack` — ``OptimizationService`` + ``BatchScheduler``
  (thread backend, 1 worker) inside the benchmark process.
* :class:`HttpStack` — ``python -m repro serve`` (process backend,
  1 worker) as a child process, driven over keep-alive HTTP.

``launch_seconds`` is measured from launch until the stack answers:
for HTTP until ``GET /healthz`` returns 200 (pool workers are warm by
then), for the in-process stack until a fresh interpreter has imported
it, built the scheduler and answered the stack's warm-up requests
(see ``perfbench/probe.py``).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from perfbench import loadgen
from perfbench.workloads import Traffic

PERFBENCH = Path(__file__).resolve().parent
#: child processes get this long to come up or to drain
_STARTUP_LIMIT_S = 120.0
_STOP_LIMIT_S = 30.0


def _child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _stop(process: subprocess.Popen, interrupt: bool = True) -> str:
    """Optionally SIGINT (graceful drain), wait, kill if stuck; returns output."""
    if interrupt and process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        output, _ = process.communicate(timeout=_STOP_LIMIT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
    return output or ""


def _read_until(process: subprocess.Popen, marker: str) -> str:
    """Read child output lines until one contains ``marker``."""
    seen: List[str] = []
    for line in process.stdout:
        seen.append(line)
        if marker in line:
            return line
    raise RuntimeError(f"child exited before {marker!r}: {''.join(seen)[-2000:]}")


def probe_inproc_setup(src: Path, seed: int) -> float:
    """Seconds from launching a fresh in-process stack until it answers."""
    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(PERFBENCH / "probe.py"), str(src), str(seed)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_child_env(src),
    )
    try:
        _read_until(process, "ready")
        elapsed = time.perf_counter() - began
    finally:
        output = _stop(process, interrupt=False)
    if process.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {output[-2000:]}")
    return elapsed


class InprocStack:
    """Thread-backend scheduler with one worker, in this process."""

    def __init__(self, seed: int) -> None:
        from repro.server import default_warmup_requests
        from repro.service import BatchScheduler, OptimizationService

        self.scheduler = BatchScheduler(OptimizationService(seed=seed), workers=1)
        for request in default_warmup_requests():
            self.scheduler.submit(request).result()

    def stats(self) -> Dict[str, Any]:
        return self.scheduler.stats()

    def run(self, traffic: Traffic, start: int, seconds: float, sampler=None):
        return loadgen.run_inprocess(self.scheduler, traffic, start, seconds, sampler)

    def send_each(self, traffic: Traffic, templates) -> List[loadgen.Outcome]:
        """Serve each template once, sequentially (cache warming)."""
        outcomes = []
        for index in templates:
            began = time.perf_counter()
            result = self.scheduler.submit(traffic.requests[index]).result()
            outcomes.append(loadgen.outcome_from_result(
                index, began, time.perf_counter(), result))
        return outcomes

    def close(self) -> None:
        self.scheduler.shutdown()


class HttpStack:
    """``python -m repro serve`` child (process backend, 1 worker)."""

    def __init__(self, src: Path, seed: int, sessions: int) -> None:
        self.sessions = sessions
        self._payloads: Dict[int, bytes] = {}
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--backend", "process", "--workers", "1", "--port", "0",
                "--seed", str(seed),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_child_env(src),
        )
        try:
            line = _read_until(self.process, "serving on http://")
            address = line.split("serving on http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
            deadline = time.perf_counter() + _STARTUP_LIMIT_S
            while self._get("/healthz").get("status") != "ok":
                if time.perf_counter() > deadline:
                    raise RuntimeError("gateway never reported healthy")
                time.sleep(0.005)
            self.launch_seconds = time.perf_counter() - began
        except BaseException:
            self.close()
            raise

    def _get(self, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def stats(self) -> Dict[str, Any]:
        return self._get("/stats")

    def _payload(self, traffic: Traffic, index: int) -> bytes:
        payload = self._payloads.get(index)
        if payload is None:
            payload = self._payloads[index] = loadgen.http_payload(traffic.body(index))
        return payload

    def prepare(self, traffic: Traffic) -> None:
        """Encode a request for every template materialized so far."""
        for template in traffic.templates:
            self._payload(traffic, template.index)

    def run(self, traffic: Traffic, start: int, seconds: float, sampler=None):
        return loadgen.run_http(
            self.port,
            traffic,
            lambda index: self._payload(traffic, index),
            self.sessions,
            start,
            seconds,
            sampler,
        )

    def send_each(self, traffic: Traffic, templates) -> List[loadgen.Outcome]:
        outcomes = []
        for index in templates:
            body = traffic.body(index)
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                began = time.perf_counter()
                connection.request("POST", "/optimize", body=body,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                reply = response.read()
                outcomes.append(loadgen.outcome_from_http(
                    index, began, time.perf_counter(), response.status, reply))
            finally:
                connection.close()
        return outcomes

    def close(self) -> None:
        _stop(self.process)

