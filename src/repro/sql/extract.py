"""Join-graph extraction: relational algebra → ``QueryGraph``.

The bridge between the SQL layer and the existing QUBO pipeline.  From a
pushed-down plan we derive exactly the inputs
:class:`~repro.joinorder.query_graph.QueryGraph` wants:

* one relation per FROM alias whose *effective* cardinality is the base
  table size multiplied by the selectivities of its local (single-table)
  filters — System-R's standard reduction before join ordering;
* one predicate per joined alias pair whose selectivity is the product
  of all comparisons connecting the pair (clamped into ``(0, 1]``).

Queries whose predicate graph does not connect all aliases are rejected
with :class:`SqlSemanticError`: they force cross products, which the
paper's formulation (and the parser) excludes.

:func:`cost_from_plan` recomputes the C_out cost of a join order
directly from the algebra tree, bypassing ``QueryGraph`` entirely — the
differential-verification harness compares it against
:func:`repro.joinorder.cost.cout_cost` on the extracted graph
(`sql-plan-consistency`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.exceptions import SqlSemanticError
from repro.sql.algebra import (
    BoundQuery,
    Filter,
    PlanNode,
    Project,
    Scan,
    predicate_aliases,
    predicate_selectivity,
)
from repro.sql.ast import Comparison
from repro.sql.catalog import MIN_SELECTIVITY
from repro.joinorder.query_graph import Predicate, QueryGraph, Relation

__all__ = [
    "cost_from_plan",
    "extract_query_graph",
    "plan_predicates",
]


def _clamp_selectivity(value: float) -> float:
    return min(1.0, max(MIN_SELECTIVITY, value))


def plan_predicates(
    plan: PlanNode,
) -> Tuple[Dict[str, List[Comparison]], List[Comparison]]:
    """Split a plan's predicates into per-alias local filters and joins.

    Returns ``(local, joins)`` where ``local`` maps each alias to the
    single-table predicates applied to it anywhere in the tree and
    ``joins`` lists every multi-table predicate.
    """
    local: Dict[str, List[Comparison]] = {}
    joins: List[Comparison] = []

    def visit(node: PlanNode) -> None:
        if isinstance(node, Scan):
            local.setdefault(node.alias, [])
            return
        if isinstance(node, Project):
            visit(node.child)
            return
        if isinstance(node, Filter):
            _classify(node.predicate)
            visit(node.child)
            return
        for pred in node.predicates:
            _classify(pred)
        visit(node.left)
        visit(node.right)

    def _classify(pred: Comparison) -> None:
        aliases = predicate_aliases(pred)
        if len(aliases) <= 1:
            alias = next(iter(aliases))
            local.setdefault(alias, []).append(pred)
        else:
            joins.append(pred)

    visit(plan)
    return local, joins


def _effective_cardinalities(
    bound: BoundQuery, local: Dict[str, List[Comparison]]
) -> Dict[str, float]:
    cards: Dict[str, float] = {}
    for alias, stats in bound.aliases.items():
        card = float(stats.cardinality)
        for pred in local.get(alias, ()):
            card *= predicate_selectivity(bound, pred)
        cards[alias] = max(1.0, card)
    return cards


def _pair_selectivities(
    bound: BoundQuery,
    joins: Sequence[Comparison],
) -> Dict[FrozenSet[str], float]:
    pairs: Dict[FrozenSet[str], float] = {}
    for pred in joins:
        aliases = predicate_aliases(pred)
        if len(aliases) != 2:
            raise SqlSemanticError(
                f"predicate {pred} references {len(aliases)} tables; only "
                "binary join predicates are supported"
            )
        sel = predicate_selectivity(bound, pred)
        pairs[aliases] = pairs.get(aliases, 1.0) * sel
    return {pair: _clamp_selectivity(sel) for pair, sel in pairs.items()}


def _check_connected(
    aliases: Sequence[str], pairs: Dict[FrozenSet[str], float]
) -> None:
    if not aliases:
        return
    adjacency: Dict[str, set] = {alias: set() for alias in aliases}
    for pair in pairs:
        a, b = sorted(pair)
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {aliases[0]}
    frontier = [aliases[0]]
    while frontier:
        for neighbour in adjacency[frontier.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    missing = [alias for alias in aliases if alias not in seen]
    if missing:
        raise SqlSemanticError(
            "query forces a cross product: no join predicate connects "
            f"{', '.join(sorted(missing))} to the rest of the FROM clause"
        )


def extract_query_graph(bound: BoundQuery, plan: PlanNode) -> QueryGraph:
    """Derive the join-ordering ``QueryGraph`` from a (pushed-down) plan.

    Relation names are the FROM aliases; cardinalities are filter-reduced
    base sizes; each joined pair gets one predicate whose selectivity is
    the product of its comparisons.
    """
    aliases = list(bound.aliases)
    if len(aliases) < 2:
        raise SqlSemanticError(
            "join optimization needs at least two tables in FROM; "
            f"got {len(aliases)}"
        )
    local, joins = plan_predicates(plan)
    pairs = _pair_selectivities(bound, joins)
    _check_connected(aliases, pairs)
    cards = _effective_cardinalities(bound, local)
    relations = tuple(
        Relation(name=alias, cardinality=cards[alias]) for alias in aliases
    )
    predicates = tuple(
        Predicate(first=min(pair), second=max(pair), selectivity=sel)
        for pair, sel in sorted(pairs.items(), key=lambda item: sorted(item[0]))
    )
    return QueryGraph(relations=relations, predicates=predicates)


def cost_from_plan(
    bound: BoundQuery,
    plan: PlanNode,
    order: Sequence[str],
) -> float:
    """C_out cost of a left-deep ``order``, computed from the algebra tree.

    Independent re-derivation of what
    :func:`repro.joinorder.cost.cout_cost` computes on the extracted
    graph: the sum over prefixes of ``∏ effective cardinalities × ∏ pair
    selectivities within the prefix``.
    """
    aliases = set(bound.aliases)
    if sorted(order) != sorted(aliases):
        raise SqlSemanticError(
            f"{list(order)} is not a permutation of the query's aliases "
            f"{sorted(aliases)}"
        )
    local, joins = plan_predicates(plan)
    cards = _effective_cardinalities(bound, local)
    pairs = _pair_selectivities(bound, joins)
    cost = 0.0
    for i in range(2, len(order) + 1):
        prefix = set(order[:i])
        size = 1.0
        for alias in order[:i]:
            size *= cards[alias]
        for pair, sel in pairs.items():
            if pair <= prefix:
                size *= sel
        cost += size
    return cost
