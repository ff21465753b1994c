"""A TPC-H-like schema with realistic statistics.

:func:`tpch_catalog` builds a :class:`~repro.sql.catalog.Catalog`
mirroring TPC-H's eight tables at a configurable scale factor: the
fixed-size dimension tables (``region``, ``nation``) keep their spec
cardinalities while the scaling tables grow linearly, matching the
benchmark's row-count formulas (``lineitem`` ≈ 6M·SF and so on).
Distinct-value counts and numeric min/max bounds follow the TPC-H data
generator's value domains; dates are encoded as day offsets from
1992-01-01 (the spec's date range spans ~2557 days) so range predicates
interpolate naturally.

:data:`JOIN_EDGES` lists the foreign-key relationships; the workload
generator walks them to produce well-formed join queries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.sql.catalog import Catalog, ColumnStats, TableStats

__all__ = ["FILTER_COLUMNS", "JOIN_EDGES", "tpch_catalog"]

#: (referencing (table, column), referenced (table, column)) FK pairs
JOIN_EDGES: Tuple[Tuple[Tuple[str, str], Tuple[str, str]], ...] = (
    (("nation", "n_regionkey"), ("region", "r_regionkey")),
    (("supplier", "s_nationkey"), ("nation", "n_nationkey")),
    (("customer", "c_nationkey"), ("nation", "n_nationkey")),
    (("partsupp", "ps_partkey"), ("part", "p_partkey")),
    (("partsupp", "ps_suppkey"), ("supplier", "s_suppkey")),
    (("orders", "o_custkey"), ("customer", "c_custkey")),
    (("lineitem", "l_orderkey"), ("orders", "o_orderkey")),
    (("lineitem", "l_partkey"), ("part", "p_partkey")),
    (("lineitem", "l_suppkey"), ("supplier", "s_suppkey")),
)

#: per-table numeric columns suitable for generated range/point filters
FILTER_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "region": ("r_regionkey",),
    "nation": ("n_nationkey",),
    "supplier": ("s_acctbal",),
    "customer": ("c_acctbal", "c_mktsegment_id"),
    "part": ("p_size", "p_retailprice"),
    "partsupp": ("ps_availqty", "ps_supplycost"),
    "orders": ("o_totalprice", "o_orderdate", "o_orderpriority_id"),
    "lineitem": ("l_quantity", "l_discount", "l_shipdate", "l_extendedprice"),
}

#: TPC-H date domain as day offsets from 1992-01-01
_DATE_MIN, _DATE_MAX = 0.0, 2557.0


def _scaled(base: float, scale: float) -> float:
    return float(max(1, round(base * scale)))


def tpch_catalog(scale: float = 0.01) -> Catalog:
    """The TPC-H-like catalog at scale factor ``scale``.

    The default ``scale=0.01`` keeps ``lineitem`` at 60k rows — large
    enough for meaningful cost spreads, small enough for fast tests.
    A :class:`Catalog` is immutable, so one instance per scale is
    built and shared: a replay stream's SQL requests all point at it
    instead of each holding its own ~6 KB copy.
    """
    if not isinstance(scale, (int, float)) or not scale > 0:
        raise ConfigurationError(f"scale must be a positive number, got {scale!r}")
    return _build_tpch_catalog(float(scale))


@lru_cache(maxsize=8)
def _build_tpch_catalog(scale: float) -> Catalog:
    suppliers = _scaled(10_000, scale)
    customers = _scaled(150_000, scale)
    parts = _scaled(200_000, scale)
    partsupps = _scaled(800_000, scale)
    orders = _scaled(1_500_000, scale)
    lineitems = _scaled(6_000_000, scale)

    def col(
        name: str,
        ndv: float,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
    ) -> ColumnStats:
        return ColumnStats(name=name, distinct_values=ndv, minimum=lo, maximum=hi)

    tables = (
        TableStats(
            name="region",
            cardinality=5,
            columns=(
                col("r_regionkey", 5, 0, 4),
                col("r_name", 5),
            ),
        ),
        TableStats(
            name="nation",
            cardinality=25,
            columns=(
                col("n_nationkey", 25, 0, 24),
                col("n_name", 25),
                col("n_regionkey", 5, 0, 4),
            ),
        ),
        TableStats(
            name="supplier",
            cardinality=suppliers,
            columns=(
                col("s_suppkey", suppliers, 1, suppliers),
                col("s_name", suppliers),
                col("s_nationkey", 25, 0, 24),
                col("s_acctbal", min(suppliers, 999_999), -999.99, 9_999.99),
            ),
        ),
        TableStats(
            name="customer",
            cardinality=customers,
            columns=(
                col("c_custkey", customers, 1, customers),
                col("c_name", customers),
                col("c_nationkey", 25, 0, 24),
                col("c_acctbal", min(customers, 999_999), -999.99, 9_999.99),
                col("c_mktsegment", 5),
                col("c_mktsegment_id", 5, 1, 5),
            ),
        ),
        TableStats(
            name="part",
            cardinality=parts,
            columns=(
                col("p_partkey", parts, 1, parts),
                col("p_name", parts),
                col("p_brand", 25),
                col("p_type", 150),
                col("p_size", 50, 1, 50),
                col("p_retailprice", min(parts, 120_000), 900.0, 2_100.0),
            ),
        ),
        TableStats(
            name="partsupp",
            cardinality=partsupps,
            columns=(
                col("ps_partkey", parts, 1, parts),
                col("ps_suppkey", suppliers, 1, suppliers),
                col("ps_availqty", 9_999, 1, 9_999),
                col("ps_supplycost", min(partsupps, 99_901), 1.0, 1_000.0),
            ),
        ),
        TableStats(
            name="orders",
            cardinality=orders,
            columns=(
                col("o_orderkey", orders, 1, 4 * orders),
                col("o_custkey", min(customers, orders), 1, customers),
                col("o_orderstatus", 3),
                col("o_totalprice", min(orders, 1_500_000), 850.0, 560_000.0),
                col("o_orderdate", min(orders, 2_406), _DATE_MIN, _DATE_MAX - 151),
                col("o_orderpriority", 5),
                col("o_orderpriority_id", 5, 1, 5),
            ),
        ),
        TableStats(
            name="lineitem",
            cardinality=lineitems,
            columns=(
                col("l_orderkey", orders, 1, 4 * orders),
                col("l_partkey", parts, 1, parts),
                col("l_suppkey", suppliers, 1, suppliers),
                col("l_quantity", 50, 1, 50),
                col("l_extendedprice", min(lineitems, 3_773_000), 900.0, 105_000.0),
                col("l_discount", 11, 0.0, 0.10),
                col("l_tax", 9, 0.0, 0.08),
                col("l_returnflag", 3),
                col("l_linestatus", 2),
                col("l_shipdate", min(lineitems, 2_526), _DATE_MIN, _DATE_MAX),
            ),
        ),
    )
    return Catalog(name=f"tpch-sf{scale:g}", tables=tables)
