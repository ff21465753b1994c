"""Seed-compatibility golden tests: the batched kernels are bit-exact.

``tests/fixtures/golden_samplers.json`` pins the exact aggregated
sample sets (samples, energies, occurrence counts) the SA / tabu /
hybrid solvers produced for fixed seeds under the dict-backed seed
implementation.  These tests assert the compiled batched kernels
reproduce them **exactly** — not approximately — which is the whole
argument that the vectorized rewrite is a refactor, not a behaviour
change.

If a test here fails after an intentional behavioural change, follow
the regeneration procedure in ``tests/golden_cases.py`` and call out
the break in the commit message.
"""

import json
import pathlib

import pytest

from repro.hybrid.solver import DecomposingSolver
from repro.qubo.compiled import compile_bqm

from tests import golden_cases

FIXTURE_PATH = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / golden_cases.FIXTURE_NAME
)


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize(
    "case_id,factory,kind,sampler_kwargs,sample_kwargs",
    golden_cases.sampler_cases(),
    ids=[c[0] for c in golden_cases.sampler_cases()],
)
def test_sampler_matches_seed_fixture(
    fixture, case_id, factory, kind, sampler_kwargs, sample_kwargs
):
    bqm = factory()
    sampler = golden_cases.make_sampler(kind, sampler_kwargs)
    got = golden_cases.sampleset_to_jsonable(sampler.sample(bqm, **sample_kwargs))
    assert got == fixture["samplers"][case_id]


@pytest.mark.parametrize(
    "case_id,factory,kind,sampler_kwargs,sample_kwargs",
    golden_cases.sampler_cases()[:4],
    ids=[c[0] for c in golden_cases.sampler_cases()[:4]],
)
def test_precompiled_model_changes_nothing(
    fixture, case_id, factory, kind, sampler_kwargs, sample_kwargs
):
    """Passing ``compile_bqm(bqm)`` as the model is the same bit-exact path."""
    bqm = factory()
    sampler = golden_cases.make_sampler(kind, sampler_kwargs)
    got = golden_cases.sampleset_to_jsonable(
        sampler.sample(compile_bqm(bqm), **sample_kwargs)
    )
    assert got == fixture["samplers"][case_id]


@pytest.mark.parametrize(
    "case_id,factory,solver_kwargs,solve_kwargs",
    golden_cases.hybrid_cases(),
    ids=[c[0] for c in golden_cases.hybrid_cases()],
)
def test_hybrid_matches_seed_fixture(
    fixture, case_id, factory, solver_kwargs, solve_kwargs
):
    result = DecomposingSolver(**solver_kwargs).solve(factory(), **solve_kwargs)
    got = {
        "sample": {str(k): int(v) for k, v in result.sample.items()},
        "energy": float(result.energy),
    }
    assert got == fixture["hybrid"][case_id]


class TestServiceSeedContract:
    """The service's seed derivation is itself part of the contract.

    A router-less service must reproduce exactly what a direct
    ``run_chain`` call with the documented seed derivation produces —
    so enabling routing (which must leave the routing-off path
    untouched) cannot silently change served plans.
    """

    def _request(self, seed=5):
        from repro.mqo.generator import random_mqo_problem
        from repro.service import OptimizationRequest

        return OptimizationRequest(
            request_id="golden",
            kind="mqo",
            problem=random_mqo_problem(4, 3, seed=seed),
            deadline_ms=5_000.0,
        )

    def test_routing_off_service_matches_direct_chain(self):
        from repro.harness import derive_seed
        from repro.service import OptimizationService
        from repro.service.chain import default_policy, policy_key, run_chain
        from repro.service.problems import make_adapter

        request = self._request()
        service = OptimizationService(seed=5)
        served = service.optimize(request)

        adapter = make_adapter("mqo", request.problem)
        solve_seed = derive_seed(
            5,
            "repro.service",
            {
                "fingerprint": adapter.fingerprint,
                "policy": policy_key(default_policy(), "first_valid"),
            },
        )
        direct = run_chain(
            adapter, default_policy(), deadline_s=5.0, seed=solve_seed
        )
        assert served.plan == direct.plan
        assert served.cost == direct.cost
        assert served.served_by == direct.served_by

    def test_routed_and_static_agree_for_same_root_seed(self):
        from repro.routing import RoutingPolicy
        from repro.service import OptimizationService

        request = self._request(seed=8)
        static = OptimizationService(seed=5).optimize(request)
        routed = OptimizationService(seed=5, routing=RoutingPolicy()).optimize(
            request
        )
        # at a generous deadline every stage fits, the routed chain
        # keeps the static order, and the shared seed derivation makes
        # the answers bit-identical
        assert routed.plan == static.plan
        assert routed.cost == static.cost
        assert routed.served_by == static.served_by
