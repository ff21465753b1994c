"""Join ordering (paper Secs. 4.2 and 6) — the paper's core contribution.

Given a query graph of relations and join predicates, find the
left-deep join order minimising the ``C_out`` cost (sum of intermediate
result cardinalities, Eq. 28).  The quantum path is the paper's
two-step transformation (Fig. 10):

1. the query graph is formulated as an MILP/BILP after
   [Trummer & Koch 2017] with logarithmic cardinalities and threshold
   variables (Sec. 6.1.2), inequality constraints eliminated through
   (discretized) slack variables (Sec. 6.1.3);
2. the all-equality BILP becomes a QUBO via [Lucas 2014]'s
   :math:`H = A H_A + B H_B` with penalty :math:`A > C/\\omega^2`
   (Sec. 6.1.4), ready for gate-model or annealing solvers.
"""

from repro.joinorder.query_graph import Predicate, QueryGraph, Relation
from repro.joinorder.generators import (
    chain_query,
    clique_query,
    cycle_query,
    paper_example_graph,
    random_query,
    star_query,
    uniform_query,
)
from repro.joinorder.cost import cout_cost, intermediate_cardinalities, join_result_cardinality
from repro.joinorder.classical import (
    JoinOrderResult,
    solve_dp_left_deep,
    solve_exhaustive,
    solve_genetic,
    solve_greedy,
    solve_simulated_annealing,
)
from repro.joinorder.direct_qubo import DirectJoinOrderQubo, solve_direct_with_annealer
from repro.joinorder.bushy import BushyResult, left_deep_penalty, solve_dp_bushy
from repro.lazy import lazy_exports

# the MILP -> BILP -> QUBO pipeline needs scipy.optimize and IKKBZ needs
# networkx, so they are imported on first use: serving needs neither
__getattr__ = lazy_exports(
    __name__,
    {
        "JoinOrderMilp": "milp",
        "MilpStatistics": "milp",
        "JoinOrderBilp": "bilp",
        "bilp_to_bqm": "qubo",
        "penalty_weight": "qubo",
        "JoinOrderQuantumPipeline": "pipeline",
        "PipelineReport": "pipeline",
        "solve_ikkbz": "ikkbz",
    },
)

__all__ = [
    "Predicate",
    "QueryGraph",
    "Relation",
    "chain_query",
    "clique_query",
    "cycle_query",
    "paper_example_graph",
    "random_query",
    "star_query",
    "uniform_query",
    "cout_cost",
    "intermediate_cardinalities",
    "join_result_cardinality",
    "JoinOrderResult",
    "solve_dp_left_deep",
    "solve_exhaustive",
    "solve_genetic",
    "solve_greedy",
    "solve_simulated_annealing",
    "JoinOrderMilp",
    "MilpStatistics",
    "JoinOrderBilp",
    "bilp_to_bqm",
    "penalty_weight",
    "JoinOrderQuantumPipeline",
    "PipelineReport",
    "DirectJoinOrderQubo",
    "solve_direct_with_annealer",
    "BushyResult",
    "left_deep_penalty",
    "solve_dp_bushy",
    "solve_ikkbz",
]
