"""Shared case definitions for the seed-compatibility golden fixtures.

The golden fixtures (``tests/fixtures/golden_samplers.json``) pin the
exact samples, energies and occurrence counts the SA / tabu / hybrid
solvers produce for fixed seeds.  They were generated from the
dict-backed seed implementation *before* the compiled-kernel rewrite
(PR 6) and are asserted bit-identical afterwards, which is what lets
the vectorized inner loops land as a pure refactor rather than a
behaviour change.

Regeneration
------------
Only regenerate when an *intentional* behavioural break ships, and say
so in the commit message::

    PYTHONPATH=src python tests/make_golden_samplers.py

Fixture history:

* generated at PR 6 from the seed (dict-loop) samplers; the compiled
  batched kernels reproduce them bit-for-bit.  Record lists are stored
  aggregated (duplicate samples merged into ``num_occurrences``), which
  matches the deduped sample sets the samplers return from PR 6 on.
"""

from __future__ import annotations

from repro.qubo.bqm import BinaryQuadraticModel, Vartype

FIXTURE_NAME = "golden_samplers.json"


def _random_bqm(n: int, density: float, seed: int, vartype: Vartype) -> BinaryQuadraticModel:
    import numpy as np

    rng = np.random.default_rng(seed)
    names = [f"x{i:02d}" for i in range(n)]
    bqm = BinaryQuadraticModel(
        {name: float(rng.uniform(-1.0, 1.0)) for name in names}, vartype=vartype
    )
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                bqm.add_quadratic(names[i], names[j], float(rng.uniform(-1.0, 1.0)))
    bqm.offset = float(rng.uniform(-0.5, 0.5))
    return bqm


def _mqo_bqm() -> BinaryQuadraticModel:
    from repro.mqo.generator import random_mqo_problem
    from repro.mqo.qubo import MqoQuboBuilder

    problem = random_mqo_problem(4, 3, seed=9)
    return MqoQuboBuilder(problem).build()


def _join_bqm() -> BinaryQuadraticModel:
    from repro.joinorder.direct_qubo import DirectJoinOrderQubo
    from repro.joinorder.generators import star_query

    return DirectJoinOrderQubo(star_query(4, seed=2)).build()


def sampler_cases():
    """(case_id, bqm_factory, sampler_kind, sampler_kwargs, sample_kwargs)."""
    return [
        (
            "sa-tiny-binary",
            lambda: BinaryQuadraticModel({"a": 1.0, "b": 1.0}, {("a", "b"): -3.0}),
            "sa",
            {"num_sweeps": 100, "seed": 1},
            {"num_reads": 10},
        ),
        (
            "sa-random-binary-12",
            lambda: _random_bqm(12, 0.4, 3, Vartype.BINARY),
            "sa",
            {"num_sweeps": 150},
            {"num_reads": 8, "seed": 5},
        ),
        (
            "sa-random-spin-10",
            lambda: _random_bqm(10, 0.6, 4, Vartype.SPIN),
            "sa",
            {"num_sweeps": 120, "seed": 6},
            {"num_reads": 6},
        ),
        (
            "sa-mqo-qubo",
            _mqo_bqm,
            "sa",
            {"num_sweeps": 80},
            {"num_reads": 5, "seed": 17},
        ),
        (
            "sa-no-postprocess",
            lambda: _random_bqm(9, 0.5, 8, Vartype.BINARY),
            "sa",
            {"num_sweeps": 60, "greedy_postprocess": False},
            {"num_reads": 4, "seed": 21},
        ),
        (
            "tabu-tiny-binary",
            lambda: BinaryQuadraticModel({"a": 1.0, "b": 1.0}, {("a", "b"): -3.0}),
            "tabu",
            {"seed": 1},
            {"num_reads": 5},
        ),
        (
            "tabu-random-binary-14",
            lambda: _random_bqm(14, 0.35, 7, Vartype.BINARY),
            "tabu",
            {},
            {"num_reads": 6, "seed": 5},
        ),
        (
            "tabu-random-spin-11",
            lambda: _random_bqm(11, 0.5, 11, Vartype.SPIN),
            "tabu",
            {"tenure": 4},
            {"num_reads": 4, "seed": 12},
        ),
        (
            "tabu-join-qubo",
            _join_bqm,
            "tabu",
            {"max_iter": 400},
            {"num_reads": 3, "seed": 19},
        ),
    ]


def hybrid_cases():
    """(case_id, bqm_factory, solver_kwargs, solve_kwargs)."""
    return [
        (
            "hybrid-random-binary-30",
            lambda: _random_bqm(30, 0.2, 13, Vartype.BINARY),
            {"sub_size": 10, "restarts": 2, "max_rounds": 4, "sub_reads": 2},
            {"seed": 5},
        ),
        (
            "hybrid-mqo-qubo",
            _mqo_bqm,
            {"sub_size": 8, "restarts": 1, "max_rounds": 3, "sub_reads": 2},
            {"seed": 11},
        ),
    ]


def make_sampler(kind: str, kwargs):
    if kind == "sa":
        from repro.annealing.simulated_annealing import SimulatedAnnealingSampler

        return SimulatedAnnealingSampler(**kwargs)
    from repro.hybrid.tabu import TabuSampler

    return TabuSampler(**kwargs)


def sampleset_to_jsonable(sample_set):
    """Aggregated (deduped) records as a JSON-stable structure."""
    aggregated = sample_set.aggregate()
    return {
        "vartype": aggregated.vartype.name,
        "records": [
            {
                "sample": {str(k): int(v) for k, v in r.sample.items()},
                "energy": float(r.energy),
                "num_occurrences": int(r.num_occurrences),
            }
            for r in aggregated
        ],
    }
