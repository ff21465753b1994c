"""Tests of the SQL front door: lexer, parser, catalog estimation,
algebra/pushdown, join-graph extraction, the TPC-H-style workload
generator, serialization round-trips and end-to-end serving."""

from __future__ import annotations

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, ProblemError
from repro.exceptions import SqlSemanticError, SqlSyntaxError
from repro.joinorder.cost import cout_cost
from repro.serialization import dumps, loads
from repro.sql import (
    ColumnStats,
    SqlQuery,
    TableStats,
    bind,
    canonical_plan,
    comparison_selectivity,
    cost_from_plan,
    estimated_cardinality,
    generate_query,
    generate_workload,
    parse_sql,
    plan_query,
    push_down_predicates,
    tokenize,
    tpch_catalog,
    workload_to_mqo,
)

_JOIN3 = (
    "SELECT * FROM customer AS c "
    "JOIN orders AS o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey "
    "WHERE c.c_acctbal >= 100"
)


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------
class TestLexer:
    def test_keywords_and_names_fold_lowercase(self):
        kinds = [(t.kind, t.value) for t in tokenize("SELECT Foo FROM Bar")]
        assert kinds == [
            ("keyword", "select"), ("name", "foo"),
            ("keyword", "from"), ("name", "bar"), ("end", ""),
        ]

    def test_quoted_identifier_preserves_case_and_escapes(self):
        tokens = tokenize('SELECT "MiXeD" FROM "a""b"')
        names = [t.value for t in tokens if t.kind == "name"]
        assert names == ["MiXeD", 'a"b']

    def test_not_equal_normalises(self):
        ops = [t.value for t in tokenize("a != b <> c") if t.kind == "operator"]
        assert ops == ["<>", "<>"]

    @pytest.mark.parametrize("text", ["SELECT 12abc", "SELECT 1.5.2"])
    def test_malformed_numbers_rejected(self, text):
        with pytest.raises(SqlSyntaxError, match="malformed number"):
            tokenize(text)

    def test_unterminated_quote_rejected(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize('SELECT "oops FROM t')

    def test_unexpected_character_rejected(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT a FROM t WHERE a @ 3")


# ----------------------------------------------------------------------
# parser edge cases
# ----------------------------------------------------------------------
class TestParser:
    def test_join_on_syntax_round_trips(self):
        statement = parse_sql(_JOIN3)
        assert len(statement.tables) == 3
        # JOIN ... ON folds into the same conjunctive predicate list
        assert len(statement.predicates) == 3
        assert parse_sql(str(statement)) == statement

    def test_comma_from_with_where_equivalent(self):
        a = parse_sql(
            "SELECT * FROM customer AS c, orders AS o "
            "WHERE c.c_custkey = o.o_custkey"
        )
        b = parse_sql(
            "SELECT * FROM customer AS c JOIN orders AS o "
            "ON c.c_custkey = o.o_custkey"
        )
        assert a.predicates == b.predicates

    def test_bare_alias_without_as(self):
        statement = parse_sql("SELECT c.c_name FROM customer c")
        assert statement.tables[0].alias == "c"

    def test_quoted_identifier_as_alias(self):
        statement = parse_sql('SELECT * FROM customer AS "C", orders AS o WHERE "C".c_custkey = o.o_custkey')
        assert statement.tables[0].alias == "C"

    def test_negative_literal(self):
        statement = parse_sql("SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c.c_acctbal >= -517.17")
        literals = [
            p.right.value
            for p in statement.predicates
            if hasattr(p.right, "value")
        ]
        assert -517.17 in literals

    def test_duplicate_alias_rejected(self):
        with pytest.raises(SqlSemanticError, match="duplicate table alias"):
            parse_sql("SELECT * FROM customer AS c, orders AS c")

    @pytest.mark.parametrize(
        "text, construct",
        [
            ("SELECT * FROM a CROSS JOIN b", "CROSS JOIN"),
            ("SELECT * FROM a LEFT JOIN b ON a.x = b.x", "LEFT JOIN"),
            ("SELECT * FROM a NATURAL JOIN b", "NATURAL JOIN"),
            ("SELECT * FROM a, b WHERE a.x = 1 OR b.y = 2", "OR"),
            ("SELECT DISTINCT x FROM a", "DISTINCT"),
            ("SELECT * FROM a WHERE a.x BETWEEN 1 AND 2", "BETWEEN"),
            ("SELECT * FROM a WHERE NOT a.x = 1", "NOT"),
            ("SELECT * FROM a WHERE (a.x = 1)", "parenthesised"),
        ],
    )
    def test_unsupported_constructs_named(self, text, construct):
        with pytest.raises(SqlSyntaxError, match=construct.split()[0]):
            parse_sql(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t WHERE a =",
            "SELECT * FROM a JOIN b",  # missing ON
            "SELECT * FROM t; SELECT * FROM u",  # trailing input
            "FROM t SELECT *",
        ],
    )
    def test_malformed_input_raises_configuration_error(self, text):
        with pytest.raises(ConfigurationError):
            parse_sql(text)

    def test_sql_errors_are_configuration_errors(self):
        assert issubclass(SqlSyntaxError, ConfigurationError)
        assert issubclass(SqlSemanticError, ConfigurationError)


# ----------------------------------------------------------------------
# catalog + System-R selectivity
# ----------------------------------------------------------------------
class TestCatalog:
    def test_equality_is_one_over_ndv(self):
        col = ColumnStats(name="x", distinct_values=50)
        assert comparison_selectivity("=", col, None, literal=3.0) == pytest.approx(0.02)

    def test_range_interpolates(self):
        col = ColumnStats(name="x", distinct_values=10, minimum=0.0, maximum=100.0)
        assert comparison_selectivity("<=", col, None, literal=25.0) == pytest.approx(0.25)
        assert comparison_selectivity(">=", col, None, literal=25.0) == pytest.approx(0.75)

    def test_join_selectivity_uses_larger_ndv(self):
        a = ColumnStats(name="x", distinct_values=100)
        b = ColumnStats(name="y", distinct_values=400)
        assert comparison_selectivity("=", a, b) == pytest.approx(1 / 400)

    def test_selectivity_clamped_positive(self):
        col = ColumnStats(name="x", distinct_values=1, minimum=0.0, maximum=1.0)
        sel = comparison_selectivity("<=", col, None, literal=-5.0)
        assert sel > 0.0

    def test_unknown_column_raises(self):
        catalog = tpch_catalog()
        with pytest.raises(SqlSemanticError):
            catalog.table("customer").column("no_such_column")
        with pytest.raises(SqlSemanticError):
            catalog.table("no_such_table")

    def test_tpch_catalog_shared_per_scale(self):
        # immutable, so every SQL request of a replay stream shares one
        assert tpch_catalog() is tpch_catalog(0.01)
        assert tpch_catalog(scale=0.02) is not tpch_catalog()
        assert tpch_catalog(scale=0.02).name == "tpch-sf0.02"
        with pytest.raises(ConfigurationError):
            tpch_catalog(scale=[1])

    def test_stats_validate(self):
        with pytest.raises(ProblemError):
            ColumnStats(name="x", distinct_values=0)
        with pytest.raises(ProblemError):
            TableStats(name="t", cardinality=0, columns=())


# ----------------------------------------------------------------------
# binding + pushdown
# ----------------------------------------------------------------------
class TestBindingAndPushdown:
    def test_unknown_table_rejected(self):
        with pytest.raises(SqlSemanticError, match="unknown table"):
            plan_query("SELECT * FROM nonexistent AS n, orders AS o WHERE n.x = o.o_custkey")

    def test_unknown_column_rejected(self):
        with pytest.raises(SqlSemanticError):
            plan_query(
                "SELECT * FROM customer AS c JOIN orders AS o "
                "ON c.c_custkey = o.o_custkey WHERE c.bogus = 1"
            )

    def test_cross_product_rejected_at_extraction(self):
        with pytest.raises(SqlSemanticError, match="cross product"):
            plan_query("SELECT * FROM customer AS c, part AS p WHERE c.c_acctbal >= 0 AND p.p_retailprice >= 0")

    def test_pushdown_moves_filters_below_joins(self):
        plan = plan_query(_JOIN3)
        # canonical plan has filters at the top; optimized pushes the
        # single-alias filter onto the scan
        text = plan.explain()
        assert text.index("Filter") > text.index("Join") or "Scan" in text
        assert "Filter c.c_acctbal >= 100" in text

    def test_pushdown_preserves_root_cardinality(self):
        plan = plan_query(_JOIN3)
        before = estimated_cardinality(plan.canonical, plan.bound)
        after = estimated_cardinality(plan.optimized, plan.bound)
        assert after == pytest.approx(before, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pushdown_cardinality_property(self, seed):
        """Pushdown never changes the estimated result cardinality."""
        catalog = tpch_catalog()
        statement = parse_sql(generate_query(seed=seed, catalog=catalog))
        bound = bind(statement, catalog)
        canonical = canonical_plan(bound)
        pushed = push_down_predicates(canonical)
        before = estimated_cardinality(canonical, bound)
        after = estimated_cardinality(pushed, bound)
        assert math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# extraction: the two cost paths agree
# ----------------------------------------------------------------------
class TestExtraction:
    def test_graph_matches_tables(self):
        plan = plan_query(_JOIN3)
        assert sorted(r.name for r in plan.graph.relations) == ["c", "l", "o"]
        assert plan.graph.num_predicates == 2

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cout_cost_equals_cost_from_plan(self, seed):
        """C_out on the extracted graph == direct algebra costing."""
        import random

        catalog = tpch_catalog()
        statement = generate_query(seed=seed, catalog=catalog)
        plan = plan_query(str(statement), catalog=catalog)
        names = [r.name for r in plan.graph.relations]
        rng = random.Random(seed)
        for _ in range(3):
            order = list(names)
            rng.shuffle(order)
            via_graph = cout_cost(plan.graph, order)
            via_algebra = cost_from_plan(plan.bound, plan.optimized, order)
            assert math.isclose(via_graph, via_algebra, rel_tol=1e-9, abs_tol=1e-9)

    def test_bad_order_rejected(self):
        plan = plan_query(_JOIN3)
        with pytest.raises(SqlSemanticError):
            cost_from_plan(plan.bound, plan.optimized, ["c", "c", "l"])


# ----------------------------------------------------------------------
# workload generator
# ----------------------------------------------------------------------
class TestWorkload:
    def test_deterministic_under_seed(self):
        a = [str(s) for s in generate_workload(6, seed=42)]
        b = [str(s) for s in generate_workload(6, seed=42)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [str(s) for s in generate_workload(6, seed=1)]
        b = [str(s) for s in generate_workload(6, seed=2)]
        assert a != b

    def test_every_query_plans(self):
        for statement in generate_workload(8, seed=9):
            plan = plan_query(str(statement))
            assert plan.graph.num_relations >= 2

    def test_table_bounds_respected(self):
        for sql in generate_workload(8, seed=3, min_tables=3, max_tables=4):
            assert 3 <= len(parse_sql(sql).tables) <= 4

    def test_workload_to_mqo(self):
        queries = generate_workload(3, seed=5, min_tables=3, max_tables=4)
        problem = workload_to_mqo(queries, plans_per_query=3, seed=5)
        assert problem.num_queries == 3
        assert problem.num_plans == 9

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_workload(0, seed=1)


# ----------------------------------------------------------------------
# serialization + fingerprints
# ----------------------------------------------------------------------
class TestSerialization:
    def test_sql_query_round_trip(self):
        query = SqlQuery(sql=_JOIN3, catalog=tpch_catalog())
        restored = loads(dumps(query))
        assert restored == query

    def test_catalog_round_trip(self):
        catalog = tpch_catalog(scale=0.02)
        assert loads(dumps(catalog)) == catalog

    def test_fingerprint_stable_across_round_trip(self):
        from repro.sql import SqlAdapter

        query = SqlQuery(sql=_JOIN3, catalog=tpch_catalog())
        restored = loads(dumps(query))
        assert SqlAdapter(query).fingerprint == SqlAdapter(restored).fingerprint

    def test_fingerprint_ignores_whitespace_and_aliasing(self):
        catalog = tpch_catalog()
        from repro.sql import SqlAdapter

        a = SqlAdapter(SqlQuery(sql=_JOIN3, catalog=catalog))
        b = SqlAdapter(SqlQuery(sql=_JOIN3.replace(" AS ", "  AS  "), catalog=catalog))
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_identical_across_processes(self):
        """Same content hash in a fresh interpreter (satellite 2)."""
        from repro.sql import SqlAdapter

        query = SqlQuery(sql=_JOIN3, catalog=tpch_catalog())
        local = SqlAdapter(query).fingerprint
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.sql import SqlAdapter, SqlQuery, tpch_catalog\n"
            f"q = SqlQuery(sql={_JOIN3!r}, catalog=tpch_catalog())\n"
            "print(SqlAdapter(q).fingerprint)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, cwd="/root/repo",
        )
        assert out.stdout.strip() == local

    def test_lazy_loads_without_prior_import(self):
        """A fresh process can loads() a sql_query payload without
        importing repro.sql first (lazy kind registry)."""
        payload = dumps(SqlQuery(sql=_JOIN3, catalog=tpch_catalog()))
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.serialization import loads\n"
            "query = loads(sys.stdin.read())\n"
            "print(type(query).__name__)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=payload, capture_output=True, text=True, check=True,
            cwd="/root/repo",
        )
        assert out.stdout.strip() == "SqlQuery"

    def test_invalid_payload_rejected(self):
        with pytest.raises(ProblemError):
            SqlQuery(sql="", catalog=tpch_catalog())
        with pytest.raises(ProblemError):
            SqlQuery(sql="SELECT 1", catalog="not a catalog")


# ----------------------------------------------------------------------
# end-to-end serving
# ----------------------------------------------------------------------
class TestServing:
    def _request(self, sql=_JOIN3, **kwargs):
        from repro.service import OptimizationRequest

        defaults = dict(
            request_id="t", kind="sql",
            problem=SqlQuery(sql=sql, catalog=tpch_catalog()),
            deadline_ms=500.0, seed=3,
        )
        defaults.update(kwargs)
        return OptimizationRequest(**defaults)

    def test_sql_request_served_with_valid_order(self):
        from repro.service import OptimizationService, make_adapter

        request = self._request()
        service = OptimizationService(seed=3)
        result = service.optimize(request)
        assert result.valid
        adapter = make_adapter("sql", request.problem)
        assert adapter.validate(result.plan)
        assert sorted(result.plan["order"]) == ["c", "l", "o"]

    def test_rerun_bit_identical(self):
        from repro.service import OptimizationService

        first = OptimizationService(seed=3).optimize(self._request())
        second = OptimizationService(seed=3).optimize(self._request())
        assert first.plan == second.plan
        assert first.cost == second.cost
        assert first.energy == second.energy

    def test_compile_cache_hit_on_equivalent_query(self):
        from repro.service import OptimizationService

        service = OptimizationService(seed=3)
        first = service.optimize(self._request())
        # textually different, same derived graph → same compiled entry
        # and solve seed, so the re-solve serves the same plan
        second = service.optimize(
            self._request(sql=_JOIN3.replace("SELECT *", "SELECT   *"))
        )
        assert service.metrics.counter("cache.compile_hits") == 1
        assert service.metrics.counter("cache.compile_misses") == 1
        assert (second.plan, second.cost) == (first.plan, first.cost)

    def test_request_round_trip_through_json(self):
        request = self._request()
        restored = loads(dumps(request))
        assert restored.kind == "sql"
        assert restored.problem == request.problem

    def test_wrong_payload_kind_rejected(self):
        from repro.mqo import random_mqo_problem

        with pytest.raises(ProblemError, match="expects a SqlQuery"):
            self._request(problem=random_mqo_problem(2, 2, seed=0))


# ----------------------------------------------------------------------
# verify integration (satellite 1)
# ----------------------------------------------------------------------
class TestSqlPlanConsistency:
    def test_clean_plans_have_no_violations(self):
        from repro.verify.invariants import check_sql_plan_consistency

        plan = plan_query(_JOIN3)
        names = [r.name for r in plan.graph.relations]
        orders = [names, list(reversed(names))]
        assert check_sql_plan_consistency(plan, orders) == []

    def test_estimator_drift_detected(self):
        from repro.verify.invariants import check_sql_plan_consistency

        plan = plan_query(_JOIN3)
        names = [r.name for r in plan.graph.relations]
        violations = check_sql_plan_consistency(plan, [names], drift=1.01)
        assert violations
        assert violations[0].invariant == "sql-plan-consistency"
