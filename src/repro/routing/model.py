"""Fixed per-solver runtime prior over QUBO size.

A stage's predicted runtime is ``expm1(bias + slope·log1p(n))``
milliseconds, where ``n`` is the QUBO variable count and
``(bias, slope)`` comes from :data:`DEFAULT_PRIORS`.  The priors are
calibrated from the stage latencies of the 64-request serving
benchmark of commit 35c5f5e (hybrid ≈ 8 ms, tabu ≈ 2 ms, sa ≈ 1.5 ms,
greedy ≈ 0.4 ms on serving-sized problems).

The model holds no state and does not learn: an ablation over the 10
seeds of the routing benchmark (``benchmarks/run.py routing``) found
that online runtime regression, a validity predictor and
runtime-bucketed budget weights each missed as many deadlines as the
fixed prior or more (see the
"Routing benchmark" section of ``EXPERIMENTS.md``).  A routing
decision is therefore a pure function of QUBO size and deadline.
"""

from __future__ import annotations

import math
from typing import Mapping, Tuple

__all__ = ["DEFAULT_PRIORS", "SolverCostModel"]

#: runtime priors as (bias, log1p-variables slope) in log1p-ms space;
#: on serving-sized problems (~20 variables) they rank
#: hybrid ≻ tabu ≻ sa ≻ greedy both in cost and in predicted runtime
DEFAULT_PRIORS: Mapping[str, Tuple[float, float]] = {
    "hybrid": (-0.24, 0.80),
    "tabu": (-1.00, 0.70),
    "sa": (-1.20, 0.70),
    "greedy": (-1.20, 0.50),
    # fleet-mode hybrid: per-shard anneals plus the reconciliation pass
    # make it the costliest stage
    "fleet": (0.10, 0.85),
}

#: prior for solvers without recorded benchmarks: assume expensive, so
#: the router only leads with them under loose deadlines
_GENERIC_PRIOR: Tuple[float, float] = (0.50, 1.00)


class SolverCostModel:
    """Runtime predictions from the fixed priors (stateless)."""

    def predict_runtime_ms(self, solver: str, num_variables: int) -> float:
        """Predicted wall-clock of one stage, finite and >= 0."""
        bias, slope = DEFAULT_PRIORS.get(solver, _GENERIC_PRIOR)
        return max(0.0, math.expm1(bias + slope * math.log1p(num_variables)))
