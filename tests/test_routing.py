"""Routing test battery: features, cost model, router, routed service.

Property tests (hypothesis) pin the routing contracts the serving layer
leans on:

* feature extraction is a pure function of problem *content* — two
  adapters holding the same problem yield identical features;
* cost-model predictions stay finite and non-negative under arbitrary
  observation streams, and converge to a constant observed runtime;
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
    FEATURE_NAMES,
    RoutingPolicy,
    SolverCostModel,
    default_cost_model,
    extract_features,
    merge_router_states,
    routing_section,
)
from repro.routing.router import _MIN_STAGE_WEIGHT, _weight_bucket
from repro.service import OptimizationRequest, OptimizationService
from repro.service.chain import ChainOutcome, default_policy
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
        assert first.num_queries == queries

    @settings(max_examples=25, deadline=None)
    @given(
        queries=st.integers(2, 6),
        ppq=st.integers(2, 3),
        seed=st.integers(0, 10_000),
    )
    def test_vector_matches_schema_and_stays_finite(self, queries, ppq, seed):
        features = mqo_features(queries, ppq, seed)
        vector = features.vector()
        assert len(vector) == len(FEATURE_NAMES)
        assert vector[0] == 1.0  # bias
        assert all(math.isfinite(v) for v in vector)
        assert 0.0 <= features.density <= 1.0
        assert features.embedding_qubits >= features.num_variables > 0

    def test_join_graph_features_use_relations(self):
        graph = chain_query(6, seed=3)
        features = extract_features(make_adapter("join_order", graph))
        assert features.kind == "join_order"
        assert features.num_queries == 6
        assert features.num_variables == graph.num_relations**2

    def test_memoized_on_adapter_instance(self):
        adapter = make_adapter("mqo", random_mqo_problem(3, 2, seed=1))
        assert extract_features(adapter) is extract_features(adapter)


class TestCostModel:
    @settings(max_examples=40, deadline=None)
    @given(
        runtimes=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        solver=st.sampled_from(["hybrid", "tabu", "sa", "greedy", "mystery"]),
    )
    def test_predictions_finite_nonnegative_under_any_stream(
        self, runtimes, solver
    ):
        model = default_cost_model()
        features = mqo_features()
        for runtime in runtimes:
            model.observe(solver, "mqo", features, runtime, valid=True)
            predicted = model.predict_runtime_ms(solver, "mqo", features)
            assert math.isfinite(predicted)
            assert predicted >= 0.0
        assert 0.0 <= model.predict_validity(solver, "mqo") <= 1.0

    def test_nonfinite_observations_ignored(self):
        model = default_cost_model()
        features = mqo_features()
        before = model.predict_runtime_ms("tabu", "mqo", features)
        for poison in (float("nan"), float("inf"), -5.0):
            model.observe("tabu", "mqo", features, poison)
        assert model.predict_runtime_ms("tabu", "mqo", features) == before

    @settings(max_examples=15, deadline=None)
    @given(
        true_ms=st.floats(min_value=0.5, max_value=5_000.0, allow_nan=False),
        solver=st.sampled_from(["hybrid", "sa", "greedy"]),
    )
    def test_online_updates_converge_to_observed_runtime(self, true_ms, solver):
        model = default_cost_model()
        features = mqo_features()
        for _ in range(200):
            model.observe(solver, "mqo", features, true_ms)
        predicted = model.predict_runtime_ms(solver, "mqo", features)
        assert predicted == pytest.approx(true_ms, rel=0.05)

    def test_priors_preserve_chain_quality_order(self):
        # on a serving-sized problem the priors must rank the chain the
        # way the recorded benchmarks do: hybrid slowest, greedy fastest
        model = default_cost_model()
        features = mqo_features(6, 3, seed=2)
        predictions = {
            solver: model.predict_runtime_ms(solver, "mqo", features)
            for solver in DEFAULT_PRIORS
        }
        assert predictions["hybrid"] > predictions["tabu"]
        assert predictions["tabu"] >= predictions["sa"]
        assert predictions["sa"] > predictions["greedy"]

    def test_validity_ewma_tracks_observations(self):
        model = default_cost_model()
        features = mqo_features()
        for _ in range(20):
            model.observe("sa", "mqo", features, 1.0, valid=False)
        assert model.predict_validity("sa", "mqo") < 0.1
        assert model.predict_validity("sa", "join_order") == pytest.approx(0.9)

    def test_state_merge_is_count_weighted(self):
        features = mqo_features()
        left = default_cost_model()
        right = default_cost_model()
        for _ in range(30):
            left.observe("tabu", "mqo", features, 10.0)
            right.observe("tabu", "mqo", features, 10.0)
        merged = SolverCostModel.merge_states([left.state(), right.state()])
        assert merged.predict_runtime_ms(
            "tabu", "mqo", features
        ) == pytest.approx(left.predict_runtime_ms("tabu", "mqo", features))
        assert merged.state()["runtime"]["tabu|mqo"]["count"] == 60

    def test_merge_router_states_matches_model_merge(self):
        features = mqo_features()
        model = default_cost_model()
        model.observe("greedy", "mqo", features, 2.0, valid=True)
        merged = merge_router_states([model.state()])
        assert merged.predict_runtime_ms(
            "greedy", "mqo", features
        ) == pytest.approx(model.predict_runtime_ms("greedy", "mqo", features))

    def test_warm_from_stats_seeds_recorded_latency(self):
        model = SolverCostModel()
        warmed = model.warm_from_stats(
            {"histograms": {"stage_seconds.tabu": {"count": 12, "mean": 0.05}}}
        )
        assert warmed == 1
        features = mqo_features(6, 3, seed=9)  # ~serving-sized problem
        predicted = model.predict_runtime_ms("tabu", "mqo", features)
        assert predicted == pytest.approx(50.0, rel=0.5)


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
        budget = router.headroom * deadline_ms
        if decision.feasible:
            assert predictions[decision.policy[0].solver] <= budget
        else:
            # nothing fits: cheapest-first maximizes any-answer odds
            ordered = [predictions[s.solver] for s in decision.policy]
            assert ordered == sorted(ordered)
        assert all(spec.weight > 0 for spec in decision.policy)
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

    def test_weight_buckets_are_powers_of_two(self):
        for predicted in (0.01, 0.3, 1.7, 42.0, 9999.0):
            bucket = _weight_bucket(predicted)
            assert bucket > 0
            assert math.log2(bucket) == round(math.log2(bucket))
        # predictions within a bucket share the weight → the routed
        # policy key (and result cache) is stable under small drift
        assert _weight_bucket(10.0) == _weight_bucket(11.0)

    def test_observe_updates_model_and_skips_censored(self):
        router = RoutingPolicy()
        features = mqo_features()
        decision = router.decide(features, 100.0)
        lead = decision.policy[0].solver
        before = router.model.predict_runtime_ms(lead, "mqo", features)
        outcome = outcome_for(decision, {lead: before * 0.2})
        # mark the entry budget-truncated: a lower-bound observation
        # below the prediction must NOT drag the prediction down
        trace = tuple(dict(entry, truncated=True) for entry in outcome.stage_trace)
        censored = ChainOutcome(
            plan={}, cost=10.0, energy=-1.0, valid=True, served_by=lead,
            deadline_exceeded=False, seconds=before * 0.2 / 1000.0,
            stage_trace=trace,
        )
        router.observe(decision, censored)
        assert router.model.predict_runtime_ms(
            lead, "mqo", features
        ) == pytest.approx(before)
        # an untruncated observation does update
        router.observe(decision, outcome_for(decision, {lead: before * 0.2}))
        assert router.model.predict_runtime_ms(lead, "mqo", features) < before

    def test_observe_records_router_metrics(self):
        from repro.service.metrics import Metrics

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
        section = routing_section(snapshot, router.model.snapshot(), ["greedy"])
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
        assert routing["model"]  # learned per-(solver|kind) entries
        assert any(key.endswith("|mqo") for key in routing["model"])

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
        first = service.optimize(make("a"))
        second = service.optimize(make("b"))
        assert not first.cache_hit and second.cache_hit
        assert (first.plan, first.cost) == (second.plan, second.cost)

    def test_tight_deadline_answer_not_reused_at_loose_deadline(self):
        # a tight deadline leads with greedy; the loose repeat must run
        # the quality-ordered chain (hybrid first) instead of hitting
        # the greedy-first answer in the result cache
        candidates = (default_policy()[0], default_policy()[-1])  # hybrid, greedy
        routed = OptimizationService(
            seed=37, routing=RoutingPolicy(candidates=candidates, headroom=0.05)
        )
        static = OptimizationService(seed=37, policy=candidates)
        problem = random_mqo_problem(4, 3, seed=4)
        make = lambda rid, deadline_ms: OptimizationRequest(  # noqa: E731
            request_id=rid, kind="mqo", problem=problem, deadline_ms=deadline_ms
        )
        # hybrid's prior (~5 ms) exceeds 5% of 80 ms, greedy's does not
        tight = routed.optimize(make("tight", 80.0))
        assert tight.stage_trace[0]["stage"] == "greedy"
        loose = routed.optimize(make("loose", 5_000.0))
        assert not loose.cache_hit
        assert loose.stage_trace[0]["stage"] == "hybrid"
        reference = static.optimize(make("static", 5_000.0))
        assert (loose.plan, loose.cost, loose.served_by) == (
            reference.plan,
            reference.cost,
            reference.served_by,
        )

    def test_service_state_ships_router_model(self):
        service = OptimizationService(seed=17, routing=RoutingPolicy())
        service.optimize(self.request(0))
        state = service.state()
        assert "routing" in state
        merged = merge_router_states([state["routing"]])
        assert merged.state()["runtime"]


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
