"""The benchmark's workloads: traffic recipes and request sequences.

Every workload draws its traffic from :func:`repro.replay.replay_stream`
with the run's ``--seed``; the same seed gives the same requests.  The
program under test only ever sees the generated requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.harness import derive_seed
from repro.replay import replay_stream
from repro.serialization import to_jsonable
from repro.service.request import OptimizationRequest, problem_to_dict

from perfbench.oracle import Template

#: per-request deadline of every workload
DEADLINE_MS = 200.0


#: kind of request ``i`` is ``MIXED[i % 5]``: 40% MQO, 40% join order and
#: 20% SQL, the mix ``replay_stream`` draws by default, but fixed per
#: position so the traffic's kind shares do not depend on the seed
MIXED = ("mqo", "join_order", "mqo", "join_order", "sql")
#: ``replay_stream`` arguments that make a stream of one kind only
_ONE_KIND = {
    "mqo": {"mqo_fraction": 1.0, "sql_fraction": 0.0},
    "join_order": {"mqo_fraction": 0.0, "sql_fraction": 0.0},
    "sql": {"sql_fraction": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: "http": ``python -m repro serve`` subprocess, process backend;
    #: "inproc": thread scheduler inside the benchmark process
    transport: str
    #: closed-loop sessions (each waits for its reply before sending again)
    sessions: int
    #: request kinds, cycled by request position
    kinds: Tuple[str, ...]
    #: distinct problem templates, split over the kinds by their share
    unique: int
    #: Zipf exponent of template popularity within each kind
    zipf_s: float
    #: send every template once before timing, so the caches are hot
    warm_templates: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hot-http",
            transport="http",
            sessions=2,
            kinds=MIXED,
            unique=128,
            zipf_s=1.1,
            warm_templates=True,
            why="deployed HTTP path on result-cache hits: gateway, JSON IPC, "
            "fingerprinting and adapter rebuilds, no solver work",
        ),
        Workload(
            name="cold-solve",
            transport="inproc",
            sessions=1,
            kinds=MIXED,
            unique=10**6,
            zipf_s=0.0,
            warm_templates=False,
            why="every request is a distinct problem, so both caches miss and "
            "QUBO build, compile and the fallback chain dominate",
        ),
        Workload(
            name="sql-repeat",
            transport="inproc",
            sessions=1,
            kinds=("sql",),
            unique=64,
            zipf_s=1.1,
            warm_templates=True,
            why="repeated SQL statements on the in-process scheduler: cache hits "
            "with the SQL front door and fingerprinting unmasked by transport",
        ),
    )
}


class Traffic:
    """A workload's request sequence, materialized on demand.

    Each kind has its own replay stream (Zipf over its share of the
    templates, seeded from ``--seed`` and the kind); request ``i`` is
    the next item of the stream of kind ``kinds[i % len(kinds)]``.  A
    request is stored as the index of its distinct template, so a long
    run costs one integer per request.  Templates keep one request each.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.templates: List[Template] = []
        self.requests: Dict[int, OptimizationRequest] = {}
        self.sequence: List[int] = []
        self._by_problem: Dict[int, int] = {}
        self._streams: Dict[str, Iterator[OptimizationRequest]] = {
            kind: replay_stream(
                10**9,
                seed=derive_seed(self.seed, "perfbench.traffic", {"kind": kind}),
                unique=max(1, round(
                    workload.unique * workload.kinds.count(kind) / len(workload.kinds))),
                zipf_s=workload.zipf_s,
                deadline_ms=DEADLINE_MS,
                **_ONE_KIND[kind],
            )
            for kind in set(workload.kinds)
        }

    def extend(self, count: int) -> None:
        """Materialize the sequence up to ``count`` requests."""
        kinds = self.workload.kinds
        while len(self.sequence) < count:
            request = next(self._streams[kinds[len(self.sequence) % len(kinds)]])
            index = self._by_problem.get(id(request.problem))
            if index is None:
                index = len(self.templates)
                self._by_problem[id(request.problem)] = index
                self.templates.append(Template(index, request.kind, request.problem))
                self.requests[index] = request
            self.sequence.append(index)

    def template_at(self, position: int) -> int:
        """Template index of request ``position`` (extends as needed)."""
        if position >= len(self.sequence):
            self.extend(position + 1)
        return self.sequence[position]

    def body(self, index: int) -> bytes:
        """Compact ``POST /optimize`` body for template ``index``."""
        request = self.requests[index]
        payload = {
            "kind": request.kind,
            "problem": problem_to_dict(request.kind, request.problem),
            "deadline_ms": request.deadline_ms,
            "seed": request.seed,
        }
        return json.dumps(to_jsonable(payload), separators=(",", ":")).encode("utf-8")
