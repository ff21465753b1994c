"""Routing test battery: features, cost model, router, routed service.

Property tests (hypothesis) pin the routing contracts the serving layer
leans on:

* feature extraction is a pure function of problem *content* — two
  adapters holding the same problem yield identical features;
* cost-model predictions stay finite and non-negative for any QUBO
  size, and equal the calibrated priors exactly;
* observed outcomes never change a later routing decision;
* the router never leads with a predicted-infeasible stage while a
  predicted-feasible candidate exists (the ``routing-regret``
  invariant), and the verification sweep's ``--inject router`` drift
  is actually caught.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.joinorder.generators import chain_query, star_query
from repro.mqo.generator import random_mqo_problem
from repro.routing import (
    DEFAULT_PRIORS,
    RoutingPolicy,
    SolverCostModel,
    extract_features,
    routing_section,
)
from repro.routing.router import _FIT_FRACTION, _MIN_STAGE_WEIGHT
from repro.service import BatchScheduler, OptimizationRequest, OptimizationService
from repro.service.chain import ChainOutcome, default_policy
from repro.service.metrics import Metrics
from repro.service.problems import make_adapter
from repro.verify import check_routing_feasibility, run_verification
from repro.verify.runner import _ScaledCostModel


def mqo_features(queries=4, ppq=3, seed=11):
    problem = random_mqo_problem(queries, ppq, seed=seed)
    return extract_features(make_adapter("mqo", problem))


def outcome_for(decision, runtimes_ms, valid=True, deadline_exceeded=False):
    """A synthetic ChainOutcome exercising decision.policy's stages."""
    trace = tuple(
        {
            "stage": spec.solver,
            "seconds": runtimes_ms[spec.solver] / 1000.0,
            "truncated": False,
            "energy": -1.0,
            "cost": 10.0,
            "valid": valid,
        }
        for spec in decision.policy
        if spec.solver in runtimes_ms
    )
    return ChainOutcome(
        plan={},
        cost=10.0,
        energy=-1.0,
        valid=valid,
        served_by=trace[0]["stage"] if trace else "fallback",
        deadline_exceeded=deadline_exceeded,
        seconds=sum(entry["seconds"] for entry in trace),
        stage_trace=trace,
    )


class TestFeatures:
    @settings(max_examples=25, deadline=None)
    @given(
        queries=st.integers(2, 6),
        ppq=st.integers(2, 3),
        seed=st.integers(0, 10_000),
    )
    def test_extraction_deterministic_per_content(self, queries, ppq, seed):
        problem = random_mqo_problem(queries, ppq, seed=seed)
        first = extract_features(make_adapter("mqo", problem))
        second = extract_features(make_adapter("mqo", problem))
        assert first == second
        assert first.kind == "mqo"
        assert first.num_variables == queries * ppq

    def test_join_graph_features_use_relations(self):
        graph = chain_query(6, seed=3)
        features = extract_features(make_adapter("join_order", graph))
        assert features.kind == "join_order"
        assert features.num_variables == graph.num_relations**2


class TestCostModel:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
        solver=st.sampled_from(["hybrid", "tabu", "sa", "greedy", "mystery"]),
    )
    def test_predictions_finite_nonnegative_under_any_stream(self, sizes, solver):
        model = SolverCostModel()
        for n in sizes:
            predicted = model.predict_runtime_ms(solver, n)
            assert math.isfinite(predicted)
            assert predicted >= 0.0

    def test_priors_preserve_chain_quality_order(self):
        # on a serving-sized problem the priors must rank the chain the
        # way the recorded benchmarks do: hybrid slowest, greedy fastest
        model = SolverCostModel()
        n = mqo_features(6, 3, seed=2).num_variables
        predictions = {
            solver: model.predict_runtime_ms(solver, n) for solver in DEFAULT_PRIORS
        }
        assert predictions["hybrid"] > predictions["tabu"]
        assert predictions["tabu"] >= predictions["sa"]
        assert predictions["sa"] > predictions["greedy"]

    @pytest.mark.parametrize(
        "solver, expected",
        [
            ("hybrid", (1.850659382916608, 7.985551964993214, 30.566499425302478)),
            ("tabu", (0.13497036300646792, 2.099267230856004, 8.305302154024579)),
            ("sa", (0.0, 1.5374653939086476, 6.618537040182713)),
            ("greedy", (0.0, 0.38024527497023614, 2.0269643675191595)),
            ("fleet", (3.340641835617295, 13.699949700805275, 54.860216670078735)),
            ("mystery", (7.243606353500642, 33.62314668470269, 165.52084834071297)),
        ],
    )
    def test_prior_predictions_pinned(self, solver, expected):
        # the shipped calibration: a change here moves routing decisions
        model = SolverCostModel()
        got = tuple(model.predict_runtime_ms(solver, n) for n in (4, 20, 100))
        assert got == expected


class TestRouter:
    def test_decide_is_deterministic(self):
        router = RoutingPolicy()
        features = mqo_features()
        first = router.decide(features, 50.0)
        second = router.decide(features, 50.0)
        assert first == second

    @settings(max_examples=40, deadline=None)
    @given(
        deadline_ms=st.floats(min_value=0.05, max_value=10_000.0, allow_nan=False),
        queries=st.integers(2, 8),
        seed=st.integers(0, 500),
    )
    def test_never_leads_with_infeasible_while_feasible_exists(
        self, deadline_ms, queries, seed
    ):
        router = RoutingPolicy()
        features = mqo_features(queries, 3, seed)
        decision = router.decide(features, deadline_ms)
        predictions = dict(decision.predicted_ms)
        budget = _FIT_FRACTION * deadline_ms
        weights = [spec.weight for spec in decision.policy]
        if decision.feasible:
            assert predictions[decision.policy[0].solver] <= budget
            # fitting stages split the budget evenly, the rest get epsilon
            assert weights == [
                1.0 if predictions[spec.solver] <= budget else _MIN_STAGE_WEIGHT
                for spec in decision.policy
            ]
        else:
            # nothing fits: cheapest-first maximizes any-answer odds
            ordered = [predictions[s.solver] for s in decision.policy]
            assert ordered == sorted(ordered)
            assert weights == [1.0] * len(weights)
        assert set(s.solver for s in decision.policy) == set(
            s.solver for s in router.candidates
        )

    def test_tight_deadline_demotes_slow_stage(self):
        router = RoutingPolicy()
        features = mqo_features(6, 3, seed=2)
        decision = router.decide(features, 0.5)
        assert decision.policy[0].solver != "hybrid"
        # the slow stage survives as a safety net with epsilon weight
        specs = {s.solver: s for s in decision.policy}
        assert specs["hybrid"].weight == _MIN_STAGE_WEIGHT

    def test_observe_never_changes_decision(self):
        # n=12: hybrid's prior (5.12 ms) fits 0.8 × 10 ms; an outcome
        # 100× over that prediction must not demote it
        router = RoutingPolicy()
        features = mqo_features(4, 3, seed=11)
        before = router.decide(features, 10.0)
        assert before.policy[0].solver == "hybrid"
        hybrid_ms = dict(before.predicted_ms)["hybrid"]
        metrics = Metrics()
        router.observe(before, outcome_for(before, {"hybrid": 100 * hybrid_ms}), metrics)
        router.observe(
            before, outcome_for(before, {"hybrid": 100 * hybrid_ms}, valid=False), metrics
        )
        assert router.decide(features, 10.0) == before
        assert metrics.snapshot()["counters"]["router.requests"] == 2

    def test_observe_records_router_metrics(self):
        router = RoutingPolicy()
        features = mqo_features()
        metrics = Metrics()
        decision = router.decide(features, 0.01)
        outcome = outcome_for(
            decision,
            {decision.policy[0].solver: 5.0},
            deadline_exceeded=True,
        )
        router.observe(decision, outcome, metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["router.requests"] == 1
        assert snapshot["counters"]["router.deadline_miss"] == 1
        assert snapshot["histograms"]["router.regret_ms"]["count"] == 1
        section = routing_section(snapshot, ["greedy"])
        assert section["enabled"] and section["deadline_miss_rate"] == 1.0

    def test_injected_optimism_breaks_feasibility_invariant(self):
        features = mqo_features(6, 3, seed=2)
        clean = check_routing_feasibility(features, [0.2, 0.5])
        assert clean == []
        honest = check_routing_feasibility(
            features, [0.2, 0.5], model=_ScaledCostModel(1.0)
        )
        assert honest == []
        drifted = check_routing_feasibility(
            features, [0.2, 0.5], model=_ScaledCostModel(0.05)
        )
        assert any(v.invariant == "routing-regret" for v in drifted)


class TestRoutedService:
    def request(self, seed, deadline_ms=5_000.0, kind="mqo"):
        if kind == "mqo":
            problem = random_mqo_problem(4, 3, seed=seed)
        else:
            problem = star_query(5, seed=seed)
        return OptimizationRequest(
            request_id=f"r-{kind}-{seed}",
            kind=kind,
            problem=problem,
            deadline_ms=deadline_ms,
        )

    def test_routed_service_serves_valid_plans_and_stats(self):
        service = OptimizationService(seed=17, routing=RoutingPolicy())
        for seed in range(4):
            result = service.optimize(self.request(seed))
            assert result.valid
        stats = service.stats()
        routing = stats["routing"]
        assert routing["enabled"]
        assert routing["requests"] == 4
        assert routing["deadline_miss"] == 0
        assert routing["candidates"] == [s.solver for s in default_policy()]

    def test_routing_off_stats_have_no_routing_section(self):
        service = OptimizationService(seed=17)
        service.optimize(self.request(0))
        assert "routing" not in service.stats()

    def test_routed_matches_static_at_loose_deadline(self):
        # with a generous deadline every candidate fits, the routed
        # chain keeps the static quality order, and the shared seed
        # derivation makes the answers bit-identical to the static arm
        static = OptimizationService(seed=23)
        routed = OptimizationService(seed=23, routing=RoutingPolicy())
        for seed in (1, 2):
            for kind in ("mqo", "join_order"):
                request = self.request(seed, kind=kind)
                a = static.optimize(request)
                b = routed.optimize(request)
                assert (a.plan, a.cost, a.served_by) == (b.plan, b.cost, b.served_by)

    def test_explicit_request_policy_bypasses_router(self):
        service = OptimizationService(seed=17, routing=RoutingPolicy())
        request = OptimizationRequest(
            request_id="pinned",
            kind="mqo",
            problem=random_mqo_problem(3, 2, seed=9),
            deadline_ms=1_000.0,
            policy=(default_policy()[-1],),  # greedy only
        )
        result = service.optimize(request)
        assert result.served_by == "greedy"
        assert "routing" in service.stats()
        assert service.stats()["routing"]["requests"] == 0

    def test_routed_result_cache_hits_on_repeat(self):
        service = OptimizationService(seed=31, routing=RoutingPolicy())
        problem = random_mqo_problem(4, 3, seed=4)
        make = lambda rid: OptimizationRequest(  # noqa: E731
            request_id=rid, kind="mqo", problem=problem, deadline_ms=5_000.0
        )
        with BatchScheduler(service, workers=1) as scheduler:
            first = scheduler.submit(make("a")).result()
            second = scheduler.submit(make("b")).result()
        assert not first.cache_hit and second.cache_hit
        assert (first.plan, first.cost) == (second.plan, second.cost)

    def test_tight_deadline_answer_not_reused_at_loose_deadline(self):
        # a tight deadline leads with greedy; the loose repeat must run
        # the quality-ordered chain (hybrid first) instead of hitting
        # the greedy-first answer in the result cache
        candidates = (default_policy()[0], default_policy()[-1])  # hybrid, greedy
        routed = OptimizationService(
            seed=37, routing=RoutingPolicy(candidates=candidates)
        )
        static = OptimizationService(seed=37, policy=candidates)
        problem = random_mqo_problem(4, 3, seed=4)
        make = lambda rid, deadline_ms: OptimizationRequest(  # noqa: E731
            request_id=rid, kind="mqo", problem=problem, deadline_ms=deadline_ms
        )
        # at n=12 hybrid's prior (5.12 ms) exceeds 0.8 × 6 ms, greedy's
        # (0.086 ms) does not; greedy finishes untruncated, so its
        # answer is cached
        with BatchScheduler(routed, workers=1) as scheduler:
            tight = scheduler.submit(make("tight", 6.0)).result()
            assert tight.stage_trace[0]["stage"] == "greedy"
            assert not tight.deadline_exceeded
            assert scheduler.submit(make("tight-again", 6.0)).result().cache_hit
            loose = scheduler.submit(make("loose", 5_000.0)).result()
        assert not loose.cache_hit
        assert loose.stage_trace[0]["stage"] == "hybrid"
        reference = static.optimize(make("static", 5_000.0))
        assert (loose.plan, loose.cost, loose.served_by) == (
            reference.plan,
            reference.cost,
            reference.served_by,
        )

class TestVerifyIntegration:
    def test_inject_router_is_detected(self):
        report = run_verification(
            suite="quick", solvers=["greedy"], seed=0, inject="router", types=["routing"]
        )
        assert not report.ok
        assert any(
            v.get("invariant") == "routing-regret" for v in report.violations
        )

    def test_clean_sweep_has_no_routing_violations(self):
        report = run_verification(suite="quick", seed=0, types=["routing"])
        routing_rows = [r for r in report.rows if r.get("type") == "routing"]
        assert routing_rows  # every case contributes a routing point
        assert all(not r["violations"] for r in routing_rows)
