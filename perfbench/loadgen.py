"""Closed-loop load generators: in-process scheduler and HTTP sessions.

A closed loop sends a session's next request only after the previous
reply arrived.  Latency is client-side, from just before the send to
the complete reply.  Each reply becomes one :class:`Outcome`; checking
it against the oracle happens after the timed phase.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from perfbench import hostproc
from perfbench.workloads import Traffic


class Outcome(NamedTuple):
    template: int
    latency_ms: float
    status: str
    valid: bool
    plan: Dict[str, Any]
    cost: float
    elapsed_ms: float
    cache_hit: bool
    #: budget-truncated stages of a solve (0 for cache hits)
    truncated: int
    #: transport or server error text, None on a normal reply
    error: Optional[str] = None
    #: perf_counter() when the reply completed
    done: float = 0.0


class Sampler:
    """Steal on ``cpu`` and process-tree CPU, marked every ``interval`` seconds.

    A loop calls :meth:`poll` after each reply; consecutive marks bound
    the windows the timed phase is split into.
    """

    def __init__(self, interval: float, cpu: int) -> None:
        self.interval = interval
        self.cpu = cpu
        #: (perf_counter, steal jiffies, total jiffies, tree CPU seconds)
        self.marks: List[Tuple[float, int, int, float]] = []
        self._next = 0.0

    def mark(self) -> None:
        steal, total = hostproc.cpu_times(self.cpu)
        cpu = sum(hostproc.tree_cpu(os.getpid()).values())
        now = time.perf_counter()
        self.marks.append((now, steal, total, cpu))
        self._next = now + self.interval

    def poll(self) -> None:
        if time.perf_counter() >= self._next:
            self.mark()


def _truncated_stages(cache_hit: bool, stage_trace) -> int:
    return 0 if cache_hit else sum(1 for entry in stage_trace if entry.get("truncated"))


def outcome_from_result(template: int, began: float, done: float, result) -> Outcome:
    """Outcome of an in-process :class:`OptimizationResult`."""
    return Outcome(
        template=template,
        latency_ms=(done - began) * 1e3,
        status=result.status,
        valid=bool(result.valid),
        plan=result.plan,
        cost=float(result.cost),
        elapsed_ms=float(result.elapsed_ms),
        cache_hit=bool(result.cache_hit),
        truncated=_truncated_stages(result.cache_hit, result.stage_trace),
        done=done,
    )


def outcome_from_http(
    template: int, began: float, done: float, status: int, body: bytes
) -> Outcome:
    """Outcome of one ``POST /optimize`` reply."""
    latency_ms = (done - began) * 1e3
    data = json.loads(body)
    if status != 200:
        error = data.get("error", {})
        state = "rejected" if status == 503 else "error"
        return Outcome(template, latency_ms, state, False, {}, float("inf"), 0.0,
                       False, 0, f"HTTP {status}: {error.get('message', '')}", done)
    cache_hit = bool(data.get("cache_hit", False))
    return Outcome(
        template=template,
        latency_ms=latency_ms,
        status=str(data.get("status")),
        valid=bool(data.get("valid", False)),
        plan=data.get("plan", {}),
        cost=float(data.get("cost", float("inf"))),
        elapsed_ms=float(data.get("elapsed_ms", 0.0)),
        cache_hit=cache_hit,
        truncated=_truncated_stages(cache_hit, data.get("stage_trace", ())),
        done=done,
    )


def error_outcome(template: int, began: float, done: float, exc: BaseException) -> Outcome:
    return Outcome(template, (done - began) * 1e3, "error", False, {}, float("inf"), 0.0,
                   False, 0, f"{type(exc).__name__}: {exc}", done)


def run_inprocess(
    scheduler, traffic: Traffic, start: int, seconds: float,
    sampler: Optional[Sampler] = None,
) -> Tuple[List[Outcome], int]:
    """One closed-loop session against an in-process scheduler.

    Returns the outcomes and the position of the next unsent request.
    """
    outcomes: List[Outcome] = []
    position = start
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        template = traffic.template_at(position)
        request = traffic.requests[template]
        position += 1
        began = time.perf_counter()
        try:
            result = scheduler.submit(request).result()
        except Exception as exc:  # noqa: BLE001 — a failed request, not a crash
            outcomes.append(error_outcome(template, began, time.perf_counter(), exc))
        else:
            outcomes.append(outcome_from_result(template, began, time.perf_counter(), result))
        if sampler is not None:
            sampler.poll()
    return outcomes, position


class _Session:
    """One keep-alive connection with at most one request outstanding."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.template = -1
        self.began = 0.0

    def send(self, template: int, payload: bytes) -> None:
        self.template = template
        self.began = time.perf_counter()
        self.sock.sendall(payload)

    def take_reply(self) -> Optional[Tuple[int, bytes]]:
        """(status, body) once a whole reply is buffered, else None."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.buffer[:head_end]).decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = head_end + 4 + length
        if len(self.buffer) < total:
            return None
        body = bytes(self.buffer[head_end + 4:total])
        del self.buffer[:total]
        return int(head.split(" ", 2)[1]), body

    def close(self) -> None:
        self.sock.close()


def http_payload(body: bytes) -> bytes:
    head = (
        "POST /optimize HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def run_http(
    port: int,
    traffic: Traffic,
    payload_of: Callable[[int], bytes],
    sessions: int,
    start: int,
    seconds: float,
    sampler: Optional[Sampler] = None,
    stall_seconds: float = 30.0,
) -> Tuple[List[Outcome], int]:
    """``sessions`` closed-loop keep-alive connections from one thread.

    ``payload_of`` maps a template index to its full HTTP request bytes.
    A reply missing for ``stall_seconds`` fails that request and ends
    the phase.
    """
    outcomes: List[Outcome] = []
    position = start
    selector = selectors.DefaultSelector()
    opened: List[_Session] = []
    end = time.perf_counter() + seconds
    try:
        for _ in range(sessions):
            session = _Session(port)
            opened.append(session)
            selector.register(session.sock, selectors.EVENT_READ, session)
            template = traffic.template_at(position)
            position += 1
            session.send(template, payload_of(template))
        active = list(opened)
        while active:
            events = selector.select(timeout=stall_seconds)
            if not events:
                for session in active:
                    outcomes.append(error_outcome(
                        session.template, session.began, time.perf_counter(),
                        TimeoutError("no reply within the stall limit")))
                break
            for key, _mask in events:
                session: _Session = key.data
                try:
                    chunk = session.sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("server closed the connection")
                except OSError as exc:
                    outcomes.append(error_outcome(
                        session.template, session.began, time.perf_counter(), exc))
                    selector.unregister(session.sock)
                    active.remove(session)
                    continue
                session.buffer += chunk
                reply = session.take_reply()
                if reply is None:
                    continue
                done = time.perf_counter()
                try:
                    outcomes.append(
                        outcome_from_http(session.template, session.began, done, *reply))
                except ValueError as exc:
                    outcomes.append(error_outcome(session.template, session.began, done, exc))
                if sampler is not None:
                    sampler.poll()
                if time.perf_counter() < end:
                    template = traffic.template_at(position)
                    position += 1
                    session.send(template, payload_of(template))
                else:
                    selector.unregister(session.sock)
                    active.remove(session)
    finally:
        selector.close()
        for session in opened:
            session.close()
    return outcomes, position
