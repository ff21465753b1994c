"""Lazy Zipfian request streams for production-scale replay.

Real optimizer traffic is heavy-tailed: a few hot queries dominate
while a long tail of one-off shapes trickles in.  The replay harness
models that with a Zipf(s) distribution over a finite pool of
``unique`` distinct problem *slots* — slot ``r`` (1-based popularity
rank) is drawn with probability proportional to ``1 / r**s`` — and
streams ``count`` requests drawn from that pool.

Everything derives from one root seed through the harness SHA-256
scheme: the rank draws come from a single sequential ``default_rng``
and each slot's problem is generated from its own derived seed on
first use.  Memory stays bounded by the slot pool (``unique``
request templates at most), never by ``count`` — the stream is a
generator and 10^6 requests cost no more resident memory than 10^2.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.harness import derive_seed
from repro.joinorder.generators import chain_query, cycle_query, star_query
from repro.mqo.generator import random_mqo_problem
from repro.service.chain import StageSpec
from repro.service.request import (
    KIND_JOIN_ORDER,
    KIND_MQO,
    KIND_SQL,
    OptimizationRequest,
)

__all__ = ["replay_stream", "zipf_cumulative"]

_JOIN_SHAPES = (chain_query, star_query, cycle_query)
_STREAM_SCOPE = "repro.replay.stream"
_SLOT_SCOPE = "repro.replay.slot"


def zipf_cumulative(unique: int, s: float) -> np.ndarray:
    """Cumulative probabilities of Zipf(s) over ranks ``1..unique``.

    A finite-support Zipf: rank ``r`` gets weight ``1 / r**s``,
    normalized.  ``searchsorted`` over the returned array maps a
    uniform draw to a rank in O(log unique).
    """
    _check_zipf(unique, s)
    weights = 1.0 / np.arange(1, unique + 1, dtype=float) ** s
    cumulative = np.cumsum(weights)
    return cumulative / cumulative[-1]


def _check_zipf(unique: int, s: float) -> None:
    if unique < 1:
        raise ConfigurationError("unique slot count must be at least 1")
    if s < 0.0:
        raise ConfigurationError("zipf exponent must be non-negative")


def _uniform_slot(u: float, unique: int) -> int:
    """Largest ``k`` with ``k / unique <= u``, for ``u`` in ``[0, 1)``.

    The Zipf(0) table holds ``k / unique`` for ``k = 1..unique``, each a
    correctly rounded quotient, and so does Python's ``int / int``:
    this is ``searchsorted(zipf_cumulative(unique, 0.0), u,
    side="right")`` without the table.
    """
    k = int(u * unique)
    while k > 0 and k / unique > u:
        k -= 1
    while (k + 1) / unique <= u:
        k += 1
    return k


def _slot_request(
    slot: int,
    seed: int,
    deadline_ms: float,
    mqo_fraction: float,
    sql_fraction: float,
    queries_range: Tuple[int, int],
    plans_per_query_range: Tuple[int, int],
    relations_range: Tuple[int, int],
    sql_tables_range: Tuple[int, int],
    policy: Optional[Tuple[StageSpec, ...]],
    mode: str,
) -> OptimizationRequest:
    """Build slot ``slot``'s problem from its derived seed.

    The SQL share is drawn first, then MQO, and the rest are join
    graphs of a random shape.
    """
    rng = np.random.default_rng(derive_seed(seed, _SLOT_SCOPE, {"slot": slot}))
    if float(rng.random()) < sql_fraction:
        from repro.sql import SqlQuery, generate_query, tpch_catalog

        kind = KIND_SQL
        statement = generate_query(
            seed=int(rng.integers(0, 2**31)),
            min_tables=sql_tables_range[0],
            max_tables=sql_tables_range[1],
        )
        problem = SqlQuery(sql=str(statement), catalog=tpch_catalog())
    elif float(rng.random()) < mqo_fraction:
        kind = KIND_MQO
        problem = random_mqo_problem(
            int(rng.integers(queries_range[0], queries_range[1] + 1)),
            int(rng.integers(plans_per_query_range[0], plans_per_query_range[1] + 1)),
            seed=int(rng.integers(0, 2**31)),
        )
    else:
        kind = KIND_JOIN_ORDER
        maker = _JOIN_SHAPES[int(rng.integers(0, len(_JOIN_SHAPES)))]
        problem = maker(
            int(rng.integers(relations_range[0], relations_range[1] + 1)),
            seed=int(rng.integers(0, 2**31)),
        )
    return OptimizationRequest(
        request_id=f"slot-{slot:06d}",
        kind=kind,
        problem=problem,
        deadline_ms=deadline_ms,
        seed=seed,
        policy=policy,
        mode=mode,
    )


def replay_stream(
    count: int,
    seed: int = 0,
    unique: int = 512,
    zipf_s: float = 1.1,
    deadline_ms: float = 200.0,
    mqo_fraction: float = 0.5,
    sql_fraction: float = 0.2,
    queries_range: Tuple[int, int] = (4, 8),
    plans_per_query_range: Tuple[int, int] = (2, 3),
    relations_range: Tuple[int, int] = (4, 7),
    sql_tables_range: Tuple[int, int] = (3, 6),
    policy: Optional[Sequence[StageSpec]] = None,
    mode: str = "first_valid",
) -> Iterator[OptimizationRequest]:
    """Stream ``count`` Zipfian-duplicated requests, generated lazily.

    Yields :class:`OptimizationRequest` objects one at a time; only the
    slot templates (at most ``unique`` of them, built on first hit) are
    retained.  Two streams with equal arguments are identical request
    for request, and the content of request ``i`` does not depend on
    ``count`` — replaying a prefix is replaying the same traffic.

    Arguments are checked on the call, before the first request is
    drawn: both fractions must lie in ``[0, 1]`` and every ``*_range``
    must satisfy ``1 <= lo <= hi``.
    """
    if count < 0:
        raise ConfigurationError("request count must be non-negative")
    for name, fraction in (("mqo_fraction", mqo_fraction), ("sql_fraction", sql_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"{name} must lie in [0, 1], got {fraction}")
    for name, (lo, hi) in (
        ("queries_range", queries_range),
        ("plans_per_query_range", plans_per_query_range),
        ("relations_range", relations_range),
        ("sql_tables_range", sql_tables_range),
    ):
        if not 1 <= lo <= hi:
            raise ConfigurationError(f"{name} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
    policy_tuple = None if policy is None else tuple(policy)
    _check_zipf(unique, zipf_s)
    # a uniform stream (zipf_s = 0) needs no CDF table over its slots
    cumulative = None if zipf_s == 0.0 else zipf_cumulative(unique, zipf_s)

    def generate() -> Iterator[OptimizationRequest]:
        rng = np.random.default_rng(
            derive_seed(seed, _STREAM_SCOPE, {"unique": unique, "zipf_s": zipf_s})
        )
        slots: Dict[int, OptimizationRequest] = {}
        for index in range(count):
            u = float(rng.random())
            if cumulative is None:
                slot = _uniform_slot(u, unique)
            else:
                slot = int(np.searchsorted(cumulative, u, side="right"))
            template = slots.get(slot)
            if template is None:
                template = _slot_request(
                    slot, seed, deadline_ms, mqo_fraction, sql_fraction,
                    queries_range, plans_per_query_range, relations_range,
                    sql_tables_range, policy_tuple, mode,
                )
                slots[slot] = template
            yield template.with_id(f"replay-{index:07d}")

    return generate()
