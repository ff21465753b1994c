"""End-to-end text-to-plan pipeline and the service bridge.

:func:`plan_query` runs the whole front door in one call::

    SQL text → parse → bind against catalog → canonical algebra tree
             → predicate pushdown → join-graph extraction

yielding a :class:`SqlPlan` that carries every intermediate product —
the CLI's ``explain`` mode prints the tree, the verify harness compares
the two cost paths, and the service solves the extracted graph.

:class:`SqlQuery` is the serving payload: raw SQL plus the catalog it
binds against.  :class:`SqlAdapter` derives the join graph once and
then *is* a :class:`~repro.service.problems.JoinOrderAdapter` over it,
so the whole fallback chain works unchanged.  Its fingerprint hashes
the derived graph (under the ``sql`` kind), so textually different
queries that induce the same join-ordering problem share a solve seed
and are served the same plan.

Importing this module registers the ``sql`` problem kind with the
service and the ``sql_query``/``catalog`` payload kinds with
:mod:`repro.serialization`; both registries also know how to lazily
import it, so JSON files and requests mentioning those kinds work
without explicit imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.exceptions import ProblemError
from repro.joinorder.query_graph import QueryGraph
from repro.serialization import register_serializer
from repro.service.problems import JoinOrderAdapter, register_problem_kind
from repro.sql.algebra import (
    BoundQuery,
    PlanNode,
    bind,
    canonical_plan,
    estimated_cardinality,
    explain_plan,
    push_down_predicates,
)
from repro.sql.ast import SelectStatement
from repro.sql.catalog import Catalog, catalog_from_dict, catalog_to_dict
from repro.sql.extract import extract_query_graph
from repro.sql.parser import parse_statement
from repro.sql.schema import tpch_catalog

__all__ = [
    "SqlAdapter",
    "SqlPlan",
    "SqlQuery",
    "parse_sql",
    "plan_query",
    "sql_query_from_dict",
    "sql_query_to_dict",
]

_FORMAT = 1


@dataclass(frozen=True)
class SqlQuery:
    """The serving payload: SQL text plus the catalog it binds against."""

    sql: str
    catalog: Catalog

    def __post_init__(self) -> None:
        if not isinstance(self.sql, str) or not self.sql.strip():
            raise ProblemError("SqlQuery.sql must be a non-empty string")
        if not isinstance(self.catalog, Catalog):
            raise ProblemError(
                f"SqlQuery.catalog must be a Catalog, got {type(self.catalog).__name__}"
            )


@dataclass(frozen=True)
class SqlPlan:
    """Every intermediate product of the text-to-plan pipeline."""

    query: SqlQuery
    statement: SelectStatement
    bound: BoundQuery
    canonical: PlanNode
    optimized: PlanNode
    graph: QueryGraph

    @property
    def estimated_rows(self) -> float:
        """Estimated result cardinality of the (pushed-down) plan."""
        return estimated_cardinality(self.optimized, self.bound)

    def explain(self) -> str:
        """Printable pushed-down algebra tree with row estimates."""
        return explain_plan(self.optimized, self.bound)


def parse_sql(sql: str) -> SelectStatement:
    """Parse SQL text (no catalog needed); alias for the parser entry."""
    return parse_statement(sql)


def plan_query(
    query: Union[str, SqlQuery], catalog: Optional[Catalog] = None
) -> SqlPlan:
    """Run the full pipeline: text → algebra → pushdown → join graph.

    Accepts raw SQL (``catalog`` defaults to the TPC-H-like schema) or
    a :class:`SqlQuery` carrying its own catalog.
    """
    if isinstance(query, SqlQuery):
        sql_query = query
    else:
        sql_query = SqlQuery(
            sql=query, catalog=catalog if catalog is not None else tpch_catalog()
        )
    statement = parse_statement(sql_query.sql)
    bound = bind(statement, sql_query.catalog)
    canonical = canonical_plan(bound)
    optimized = push_down_predicates(canonical)
    graph = extract_query_graph(bound, optimized)
    return SqlPlan(
        query=sql_query,
        statement=statement,
        bound=bound,
        canonical=canonical,
        optimized=optimized,
        graph=graph,
    )


class SqlAdapter(JoinOrderAdapter):
    """Service adapter for raw-SQL requests.

    Planning happens once at construction; afterwards this behaves
    exactly like a join-order adapter over the derived graph, so every
    stage of the fallback chain applies.  The fingerprint hashes the
    *derived graph* under the ``sql`` kind: equivalent queries
    (whitespace, aliasing, predicate order) get the same solve seed.
    """

    kind = "sql"

    def __init__(self, query: SqlQuery) -> None:
        self.query = query
        self.plan = plan_query(query)
        super().__init__(self.plan.graph)


# ----------------------------------------------------------------------
# serialization (payload kinds ``sql_query`` and ``catalog``)
# ----------------------------------------------------------------------
def sql_query_to_dict(query: SqlQuery) -> Dict[str, Any]:
    """SqlQuery → plain dictionary (versioned, catalog embedded)."""
    return {
        "format": _FORMAT,
        "kind": "sql_query",
        "sql": query.sql,
        "catalog": catalog_to_dict(query.catalog),
    }


def sql_query_from_dict(data: Dict[str, Any]) -> SqlQuery:
    """Dictionary → SqlQuery (validates on construction)."""
    if data.get("kind") != "sql_query":
        raise ProblemError(f"expected kind 'sql_query', got {data.get('kind')!r}")
    if data.get("format") != _FORMAT:
        raise ProblemError(f"unsupported format version {data.get('format')!r}")
    return SqlQuery(
        sql=str(data["sql"]), catalog=catalog_from_dict(data["catalog"])
    )


register_serializer(SqlQuery, "sql_query", sql_query_to_dict, sql_query_from_dict)
register_serializer(Catalog, "catalog", catalog_to_dict, catalog_from_dict)

register_problem_kind(
    kind="sql",
    payload_cls=SqlQuery,
    to_dict=sql_query_to_dict,
    from_dict=sql_query_from_dict,
    adapter=SqlAdapter,
)
