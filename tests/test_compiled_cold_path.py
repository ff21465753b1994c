"""The service's cold path on arrays agrees bit for bit with the dict path.

* ``build_compiled()`` of the MQO and join-order builders (the latter
  also over graphs extracted from generated SQL) equals
  ``compile_bqm(builder.build())``: variables, every array, the offset
  and the spin companion, compared by ``repr`` so -0.0 counts;
* ``CompiledBQM.clamp`` equals ``compile_bqm(clamp_subproblem(...))``
  over random models, blocks and states, and brute force finds the
  same optimum and optima list on both forms;
* a cold ``OptimizationService.optimize`` of each kind on the default
  chain constructs no ``BinaryQuadraticModel``, while ``adapter.bqm()``
  still returns the dict model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hybrid.decomposer import clamp_subproblem
from repro.joinorder.direct_qubo import DirectJoinOrderQubo
from repro.joinorder.query_graph import Predicate, QueryGraph, Relation
from repro.mqo.generator import random_mqo_problem
from repro.mqo.problem import MqoProblem, Plan, Saving
from repro.mqo.qubo import MqoQuboBuilder
from repro.qubo import BinaryQuadraticModel, Vartype, brute_force_minimum, compile_bqm
from repro.service import OptimizationRequest, OptimizationService, make_adapter
from repro.sql import generate_query, plan_query, tpch_catalog
from repro.sql.pipeline import SqlQuery


def fields(compiled, with_companion=True):
    """Every field of a compiled model as ``repr`` strings."""
    out = {
        "variables": repr(compiled.variables),
        "vartype": repr(compiled.vartype),
        "offset": repr(compiled.offset),
    }
    for name in ("linear", "edge_u", "edge_v", "edge_bias"):
        out[name] = repr(getattr(compiled, name).tolist())
    if with_companion and compiled.vartype is Vartype.BINARY:
        out["spin"] = fields(compiled.spin, with_companion=False)
    return out


def assert_builder_arrays_match(builder):
    assert fields(builder.build_compiled()) == fields(compile_bqm(builder.build()))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
costs = st.one_of(
    st.integers(0, 30),
    st.floats(0.0, 50.0, allow_nan=False),
    st.sampled_from([0.0, 0.1, 1e-9]),
)


@st.composite
def mqo_problems(draw):
    queries = draw(st.integers(1, 5))
    plans = []
    for query in range(queries):
        for _ in range(draw(st.integers(1, 4))):
            plans.append(Plan(len(plans), query, draw(costs)))
    pairs = [(a, b) for a in range(len(plans)) for b in range(a + 1, len(plans))]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    savings = tuple(
        Saving(a, b, draw(st.floats(0.01, 20.0, allow_nan=False))) for a, b in chosen
    )
    return MqoProblem(plans=tuple(plans), savings=savings)


@settings(max_examples=60, deadline=None)
@given(problem=mqo_problems(), margin=st.sampled_from([1.0, 0.0, 0.5, 2]))
def test_mqo_arrays_match_dict_build(problem, margin):
    assert_builder_arrays_match(MqoQuboBuilder(problem, weight_margin=margin))


@settings(max_examples=20, deadline=None)
@given(
    queries=st.integers(1, 12), plans=st.integers(1, 4), seed=st.integers(0, 10**6)
)
def test_mqo_generator_arrays_match_dict_build(queries, plans, seed):
    assert_builder_arrays_match(MqoQuboBuilder(random_mqo_problem(queries, plans, seed=seed)))


@st.composite
def query_graphs(draw):
    count = draw(st.integers(2, 8))
    relations = tuple(
        Relation(f"r{i}", draw(st.floats(1.0, 1e6, allow_nan=False))) for i in range(count)
    )
    pairs = [(a, b) for a in range(count) for b in range(count) if a != b]
    chosen = draw(
        st.lists(st.sampled_from(pairs), max_size=2 * count, unique_by=lambda p: frozenset(p))
    )
    predicates = tuple(
        Predicate(f"r{a}", f"r{b}", draw(st.floats(1e-6, 1.0, allow_nan=False)))
        for a, b in chosen
    )
    return QueryGraph(relations=relations, predicates=predicates)


@settings(max_examples=60, deadline=None)
@given(
    graph=query_graphs(),
    penalty=st.one_of(st.none(), st.integers(1, 50), st.floats(0.5, 500.0)),
    log_base=st.sampled_from([10.0, 2.0, 2.718281828459045]),
)
def test_join_order_arrays_match_dict_build(graph, penalty, log_base):
    assert_builder_arrays_match(
        DirectJoinOrderQubo(graph, log_base=log_base, penalty=penalty)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_sql_graph_arrays_match_dict_build(seed):
    graph = plan_query(SqlQuery(generate_query(seed=seed), tpch_catalog())).graph
    assert_builder_arrays_match(DirectJoinOrderQubo(graph))


# ----------------------------------------------------------------------
# clamping and exact enumeration
# ----------------------------------------------------------------------
finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def clamp_cases(draw):
    vartype = draw(st.sampled_from([Vartype.BINARY, Vartype.SPIN]))
    n = draw(st.integers(1, 10))
    names = [f"v{i}" for i in draw(st.permutations(range(n)))]
    bqm = BinaryQuadraticModel(vartype=vartype, offset=draw(finite))
    for v in names:
        bqm.add_linear(v, draw(finite))
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if u != v:
            bqm.add_quadratic(u, v, draw(st.one_of(finite, st.just(0.0))))
    block = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    values = vartype.values
    state = [draw(st.sampled_from(values)) for _ in range(n)]
    return bqm, block, state


@settings(max_examples=150, deadline=None)
@given(case=clamp_cases())
def test_array_clamp_matches_dict_clamp(case):
    bqm, block, state = case
    compiled = compile_bqm(bqm)
    sample = dict(zip(compiled.variables, state))
    got = compiled.clamp(block, np.array(state, dtype=float))
    want_bqm = clamp_subproblem(bqm, [compiled.variables[i] for i in block], sample)
    assert fields(got) == fields(compile_bqm(want_bqm))

    exact_arrays = brute_force_minimum(got)
    exact_dict = brute_force_minimum(want_bqm)
    assert repr(exact_arrays.energy) == repr(exact_dict.energy)
    assert exact_arrays.all_optima == exact_dict.all_optima


def test_clamp_ignores_block_order_and_keeps_model_order():
    bqm = BinaryQuadraticModel(
        {"c": 1.0, "a": -2.0, "b": 0.5}, {("a", "b"): -3.0, ("b", "c"): 1.5}, offset=0.25
    )
    compiled = compile_bqm(bqm)
    state = np.array([1.0, 1.0, 0.0])
    forward, backward = compiled.clamp([0, 2], state), compiled.clamp([2, 0], state)
    assert forward.variables == backward.variables == ("c", "b")
    assert fields(forward) == fields(backward)


def test_to_bqm_round_trips():
    problem = random_mqo_problem(4, 3, seed=2)
    builder = MqoQuboBuilder(problem)
    compiled = builder.build_compiled()
    again = compiled.to_bqm()
    assert fields(compile_bqm(again)) == fields(compiled)
    assert list(again.interactions()) == list(builder.build().interactions())


# ----------------------------------------------------------------------
# the service's cold path builds no dict model
# ----------------------------------------------------------------------
def _cold_requests():
    from repro.joinorder.generators import star_query

    return [
        OptimizationRequest(
            request_id="mqo", kind="mqo", problem=random_mqo_problem(6, 3, seed=4),
            deadline_ms=2000.0,
        ),
        OptimizationRequest(
            request_id="join", kind="join_order", problem=star_query(5, seed=4),
            deadline_ms=2000.0,
        ),
        OptimizationRequest(
            request_id="sql", kind="sql",
            problem=SqlQuery(generate_query(seed=7, min_tables=4), tpch_catalog()),
            deadline_ms=2000.0,
        ),
    ]


@pytest.mark.parametrize("index", range(3), ids=["mqo", "join_order", "sql"])
def test_cold_optimize_builds_no_dict_model(monkeypatch, index):
    request = _cold_requests()[index]
    service = OptimizationService(seed=0)
    built = []
    original = BinaryQuadraticModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(BinaryQuadraticModel, "__init__", counting_init)
    result = service.optimize(request)
    assert result.valid
    assert result.served_by != "fallback"
    assert built == []

    monkeypatch.setattr(BinaryQuadraticModel, "__init__", original)
    adapter = make_adapter(request.kind, request.problem)
    adapter.compiled()
    dict_model = adapter.bqm()
    assert isinstance(dict_model, BinaryQuadraticModel)
    reference = adapter._builder.build()
    assert list(dict_model.interactions()) == list(reference.interactions())
    assert dict_model.linear == reference.linear
    assert repr(dict_model.offset) == repr(reference.offset)
