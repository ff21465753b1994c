"""The per-request problem features the solver router looks at.

The router must decide a chain order *before* any solver runs, so it
may only look at what the compiled problem gives away for free: the
problem kind and the QUBO variable count.  Both are a pure function of
the problem *content* — two adapters with the same fingerprint produce
identical :class:`ProblemFeatures` (pinned by a hypothesis property in
``tests/test_routing.py``) — which keeps routed serving deterministic
under the service's content-derived seed contract.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProblemFeatures", "extract_features"]


@dataclass(frozen=True)
class ProblemFeatures:
    """Everything the router may look at before picking a chain."""

    kind: str
    #: QUBO variable count, the only input of the runtime prior
    num_variables: int


def extract_features(adapter) -> ProblemFeatures:
    """Features of one problem adapter (service protocol, see
    :mod:`repro.service.problems`)."""
    return ProblemFeatures(
        kind=str(getattr(adapter, "kind", "unknown")),
        num_variables=int(adapter.bqm().num_variables),
    )
