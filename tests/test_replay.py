"""Replay harness tests: lazy Zipfian streams + the measurement driver.

The stream contract is threefold: requests are generated lazily (a
10^6-request stream costs nothing until iterated), deterministically
(same parameters → same requests), and prefix-stably (request *i* does
not depend on the total count — what lets a smoke run predict the head
of a full-scale run).  The driver's contract is that it counts what the
scheduler answered, including plans that fail validation.
"""

import hashlib
import json
import time
from collections import Counter
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from repro import server
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.replay import replay_stream, run_replay, zipf_cumulative
from repro.replay.driver import _PlanValidator
from repro.replay.stream import _uniform_slot
from repro.serialization import to_jsonable
from repro.server import ServiceConfig, make_scheduler
from repro.service import BatchScheduler, OptimizationService
from repro.service.request import problem_to_dict

STREAM_KW = dict(seed=9, unique=16, zipf_s=1.2, deadline_ms=300.0)

#: SHA-256 of the first 200 requests' (request_id, kind, seed, problem)
#: for fixed arguments; a change here changes every replay benchmark's
#: traffic, so it must be deliberate
STREAM_DIGESTS = [
    (
        dict(STREAM_KW, sql_fraction=0.0),
        "274deebf3e59ee36076ae84fbd66db5356e2c19cce4970610c2d04e0cb056dac",
    ),
    (
        dict(seed=3, unique=64, zipf_s=1.1, mqo_fraction=0.4, sql_fraction=0.3),
        "84fed4f8b83cef4ad5ece0ac4215f964593ab17205c27deffb8735944225b8d5",
    ),
]


def head(count, take=None, **kwargs):
    params = {**STREAM_KW, **kwargs}
    stream = replay_stream(count, **params)
    return list(islice(stream, take)) if take else list(stream)


class TestZipf:
    def test_cumulative_is_normalized_and_monotone(self):
        weights = zipf_cumulative(32, 1.1)
        assert weights[-1] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_heavier_skew_concentrates_head(self):
        flat = zipf_cumulative(32, 0.0)
        skewed = zipf_cumulative(32, 2.0)
        assert skewed[0] > flat[0]

    @pytest.mark.parametrize("unique", [1, 2, 3, 7, 10, 333, 333333, 400000, 10**6])
    def test_uniform_slot_matches_table_search(self, unique):
        # every grid point k/unique, its float neighbours and random draws
        grid = np.arange(unique + 1, dtype=float) / unique
        draws = np.concatenate([
            grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0),
            np.random.default_rng(unique).random(1000),
        ])
        draws = draws[(draws >= 0.0) & (draws < 1.0)]
        expected = np.searchsorted(zipf_cumulative(unique, 0.0), draws, side="right")
        got = np.array([_uniform_slot(float(u), unique) for u in draws])
        assert np.array_equal(got, expected)

    def test_uniform_stream_rejects_empty_pool(self):
        with pytest.raises(ConfigurationError):
            replay_stream(4, unique=0, zipf_s=0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_cumulative(0, 1.0)
        with pytest.raises(ConfigurationError):
            zipf_cumulative(8, -0.5)


class TestStream:
    def test_lazy_generation(self):
        start = time.perf_counter()
        first = head(10**6, take=5)
        elapsed = time.perf_counter() - start
        assert len(first) == 5
        # building 5 of a million takes milliseconds; a materialized
        # stream would need minutes
        assert elapsed < 30.0

    def test_deterministic(self):
        a = [(r.request_id, r.kind, r.seed, r.problem) for r in head(80)]
        b = [(r.request_id, r.kind, r.seed, r.problem) for r in head(80)]
        assert a == b

    def test_prefix_stable_across_counts(self):
        short = [(r.request_id, r.kind, r.seed) for r in head(50)]
        long = [(r.request_id, r.kind, r.seed) for r in head(5000, take=50)]
        assert short == long

    def test_request_ids_are_positional(self):
        ids = [r.request_id for r in head(3)]
        assert ids == ["replay-0000000", "replay-0000001", "replay-0000002"]

    def test_zipf_duplication_bounded_by_unique(self):
        requests = head(400, unique=8, zipf_s=1.5)
        assert len({r.request_id for r in requests}) == 400
        # a repeat reuses its slot's problem object
        contents = Counter(id(r.problem) for r in requests)
        assert len(contents) <= 8
        # heavy tail: the hottest template dominates a uniform share
        assert contents.most_common(1)[0][1] > 400 / 8

    @pytest.mark.parametrize(
        "mqo_fraction, sql_fraction, expected",
        [
            (0.4, 0.3, {"mqo", "join_order", "sql"}),
            (1.0, 0.0, {"mqo"}),
            (0.0, 0.0, {"join_order"}),
            (0.5, 1.0, {"sql"}),
        ],
        ids=["mixed", "mqo", "join", "sql"],
    )
    def test_kind_mix(self, mqo_fraction, sql_fraction, expected):
        kinds = {
            r.kind
            for r in head(300, mqo_fraction=mqo_fraction, sql_fraction=sql_fraction)
        }
        assert kinds == expected

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sql_fraction=1.5, mqo_fraction=-2.0),
            dict(sql_fraction=-0.1),
            dict(mqo_fraction=1.01),
            dict(sql_fraction=float("nan")),
            dict(queries_range=(0, 4)),
            dict(plans_per_query_range=(3, 2)),
            dict(relations_range=(5, 4)),
            dict(sql_tables_range=(0, 0)),
        ],
    )
    def test_out_of_range_arguments_rejected_on_call(self, kwargs):
        # raised by the call itself, before any request is drawn
        with pytest.raises(ConfigurationError):
            replay_stream(10, **kwargs)

    @pytest.mark.parametrize("kwargs, digest", STREAM_DIGESTS)
    def test_stream_digest_pinned(self, kwargs, digest):
        rows = [
            [r.request_id, r.kind, r.seed, to_jsonable(problem_to_dict(r.kind, r.problem))]
            for r in replay_stream(200, **kwargs)
        ]
        blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_deadline_applied(self):
        assert all(r.deadline_ms == 300.0 for r in head(10))


class TestDriver:
    def test_run_replay_reports_everything(self):
        with make_scheduler(
            "thread", config=ServiceConfig(seed=9), workers=2
        ) as scheduler:
            report = run_replay(
                scheduler, replay_stream(100, **STREAM_KW), max_in_flight=32
            )
        assert report.requests == 100
        assert report.errors == 0
        assert report.invalid == 0
        assert report.ok + report.rejected == 100
        assert report.latency_ms["count"] == 100
        for key in ("p50", "p95", "p99"):
            assert key in report.latency_ms
        assert 0.0 <= report.cache["hit_rate"] <= 1.0
        assert 0.0 <= report.coalesce["hit_rate"] <= 1.0
        payload = report.to_dict()
        assert payload["backend"] == "thread"
        assert payload["throughput_rps"] > 0
        assert payload["routing"] == {}  # routing off

    def test_routed_replay_reports_router_counters(self):
        with make_scheduler(
            "thread", config=ServiceConfig(seed=9, routing=True), workers=1
        ) as scheduler:
            report = run_replay(scheduler, replay_stream(10, **STREAM_KW))
        assert set(report.routing) == {
            "requests", "deadline_miss", "fallthrough", "infeasible"
        }
        assert 0 < report.routing["requests"] <= 10
        assert report.to_dict()["routing"] == report.routing

    def test_admission_rejections_counted(self):
        with make_scheduler(
            "thread",
            config=ServiceConfig(seed=9),
            workers=1,
            queue_limit=1,
        ) as scheduler:
            report = run_replay(
                scheduler, replay_stream(60, **STREAM_KW), max_in_flight=60
            )
        assert report.rejected > 0
        assert report.rejection_rate == pytest.approx(
            report.rejected / report.requests
        )

    def test_driver_validation(self):
        with make_scheduler(
            "thread", config=ServiceConfig(seed=9), workers=1
        ) as scheduler:
            with pytest.raises(ConfigurationError):
                run_replay(scheduler, replay_stream(5, **STREAM_KW), max_in_flight=0)
            with pytest.raises(ConfigurationError):
                run_replay(scheduler, replay_stream(5, **STREAM_KW), rate=-5.0)


class _EmptyPlanService(OptimizationService):
    """Serves every request with its plan emptied, still flagged valid."""

    def optimize(self, request):
        return replace(super().optimize(request), plan={})


def _invalid_plan_scheduler(*_args, **_kwargs):
    return BatchScheduler(_EmptyPlanService(seed=9), workers=1)


class TestValidation:
    def test_invalid_plans_counted(self):
        with _invalid_plan_scheduler() as scheduler:
            report = run_replay(scheduler, replay_stream(20, **STREAM_KW))
        # repeats of an invalid plan are re-checked, so all 20 count
        assert report.ok == report.invalid == 20
        assert report.to_dict()["invalid"] == 20

    def test_memo_skips_only_exact_repeats(self):
        validate = _PlanValidator()
        request = next(replay_stream(1, **STREAM_KW))
        result = OptimizationService(seed=9).optimize(request)
        assert validate(request, result)
        assert validate(request, result.with_request_id("again"))
        # a different plan for an already-validated problem is re-checked
        assert not validate(request, replace(result, plan={}))

    def test_cli_exits_1_on_invalid_plans(self, monkeypatch, capsys):
        monkeypatch.setattr(server, "make_scheduler", _invalid_plan_scheduler)
        assert main(["replay", "--requests", "20", "--unique", "4"]) == 1
        assert "invalid 20" in capsys.readouterr().out

    def test_cli_rejects_out_of_range_mix(self, capsys):
        code = main(["replay", "--requests", "5", "--sql-fraction", "1.5",
                     "--mqo-fraction", "-2.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
