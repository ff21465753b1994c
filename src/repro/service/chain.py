"""Deadline-aware fallback-chain execution.

A *policy* is an ordered tuple of :class:`StageSpec` entries — registry
solver names with options and a deadline share — walked by
:func:`run_chain` under a wall-clock budget:

* each stage receives ``remaining × weight / remaining_weights`` of the
  budget, so unused time rolls forward to later stages;
* stages whose solver supports cooperative ``time_budget`` solving
  (:func:`repro.hybrid.supports_time_budget`) are handed their slice,
  others are bounded at stage boundaries only;
* the best **valid** plan seen so far is always returned; when the
  deadline expires mid-chain the remaining stages are skipped and the
  result is flagged ``deadline_exceeded``;
* when no stage produced a valid plan (or the deadline is zero or
  negative), the problem adapter's guaranteed classical fallback serves
  the request — degradation, never an exception.

Per-stage seeds are derived with the harness's SHA-256 scheme from the
chain seed and the stage's position, so a rerun with the same seed
replays identical stage results regardless of wall-clock jitter (as
long as every stage it reaches completes within its slice).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.harness import derive_seed
from repro.hybrid.registry import make_solver, supports_time_budget

__all__ = [
    "ChainOutcome",
    "Deadline",
    "StageSpec",
    "default_policy",
    "parse_policy",
    "policy_key",
    "run_chain",
]

#: stage name reported when the guaranteed classical fallback served
FALLBACK_STAGE = "fallback"

#: serving-tuned default chain: strongest solver first, each stage
#: cheaper than the one before, greedy descent as the last resort.
_DEFAULT_STAGES = (
    (
        "hybrid",
        {"sub_size": 10, "max_rounds": 3, "stall_rounds": 1, "restarts": 1, "sub_reads": 2},
        4.0,
    ),
    ("tabu", {"num_reads": 4}, 2.0),
    ("sa", {"num_reads": 6, "num_sweeps": 120}, 2.0),
    ("greedy", {"restarts": 6}, 1.0),
)


@dataclass(frozen=True)
class StageSpec:
    """One stage of a fallback policy."""

    solver: str
    #: frozen as sorted key/value pairs so specs are hashable
    options: Tuple[Tuple[str, Any], ...] = ()
    #: share of the deadline relative to the other stages
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"stage {self.solver!r} weight must be positive, got {self.weight}"
            )

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "solver": self.solver,
            "options": self.options_dict(),
            "weight": self.weight,
        }

    @classmethod
    def from_any(
        cls, spec: Union[str, Mapping[str, Any], "StageSpec"]
    ) -> "StageSpec":
        if isinstance(spec, StageSpec):
            return spec
        if isinstance(spec, str):
            name = spec.strip()
            for solver, options, weight in _DEFAULT_STAGES:
                if solver == name:
                    return cls(solver, tuple(sorted(options.items())), weight)
            return cls(name)
        options = dict(spec.get("options", {}))
        return cls(
            solver=str(spec["solver"]),
            options=tuple(sorted(options.items())),
            weight=float(spec.get("weight", 1.0)),
        )


def default_policy() -> Tuple[StageSpec, ...]:
    """The serving default: ``hybrid → tabu → sa → greedy``."""
    return tuple(
        StageSpec(solver, tuple(sorted(options.items())), weight)
        for solver, options, weight in _DEFAULT_STAGES
    )


def parse_policy(
    policy: Union[str, Iterable[Union[str, Mapping[str, Any], StageSpec]]],
) -> Tuple[StageSpec, ...]:
    """Parse ``"hybrid,tabu,greedy"`` or a spec list into a policy."""
    if isinstance(policy, str):
        parts = [p for p in (s.strip() for s in policy.split(",")) if p]
    else:
        parts = list(policy)
    if not parts:
        raise ConfigurationError("a fallback policy needs at least one stage")
    return tuple(StageSpec.from_any(p) for p in parts)


def policy_key(policy: Sequence[StageSpec], mode: str) -> str:
    """Canonical string identifying a policy + chain mode (cache keys)."""
    stages = ";".join(
        f"{s.solver}({','.join(f'{k}={v!r}' for k, v in s.options)})*{s.weight:g}"
        for s in policy
    )
    return f"{mode}|{stages}"


class Deadline:
    """A monotonic wall-clock budget."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self._start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


@dataclass(frozen=True)
class ChainOutcome:
    """What a chain run produced."""

    plan: Dict[str, Any]
    cost: float
    energy: Optional[float]
    valid: bool
    served_by: str
    deadline_exceeded: bool
    seconds: float
    stage_trace: Tuple[Dict[str, Any], ...]


def run_chain(
    adapter,
    policy: Sequence[StageSpec],
    deadline_s: float,
    seed: int,
    mode: str = "first_valid",
) -> ChainOutcome:
    """Walk ``policy`` over ``adapter``'s problem within ``deadline_s``.

    See the module docstring for the budget and degradation contract.
    ``adapter`` is a problem adapter from :mod:`repro.service.problems`.
    """
    deadline = Deadline(deadline_s)
    trace: List[Dict[str, Any]] = []
    best: Optional[Dict[str, Any]] = None
    deadline_exceeded = False

    if deadline_s > 0:
        weights = [spec.weight for spec in policy]
        for index, spec in enumerate(policy):
            remaining = deadline.remaining()
            if remaining <= 0.0:
                # expired mid-chain: skip the remaining stages
                deadline_exceeded = True
                break
            # this stage's slice; unused time rolls forward
            stage_budget = remaining * weights[index] / sum(weights[index:])
            stage_seed = derive_seed(
                seed,
                "repro.service.chain",
                {"stage": spec.solver, "index": index},
            )
            entry = _run_stage(adapter, spec, stage_seed, stage_budget)
            trace.append(entry)
            if entry["valid"] and (best is None or entry["cost"] < best["cost"] - 1e-12):
                best = entry
            if mode == "first_valid" and entry["valid"]:
                break
    else:
        deadline_exceeded = True

    if best is None:
        # nothing valid in time: guaranteed classical fallback
        start = time.perf_counter()
        plan, cost = adapter.fallback(seed)
        entry = {
            "stage": FALLBACK_STAGE,
            "seconds": time.perf_counter() - start,
            "energy": None,
            "cost": cost,
            "valid": True,
            "plan": plan,
        }
        trace.append(entry)
        best = entry

    return ChainOutcome(
        plan=best["plan"],
        cost=float(best["cost"]),
        energy=best["energy"],
        valid=bool(best["valid"]),
        served_by=best["stage"],
        deadline_exceeded=bool(deadline_exceeded or deadline.expired()),
        seconds=deadline.elapsed(),
        stage_trace=tuple(
            {k: v for k, v in entry.items() if k != "plan"} for entry in trace
        ),
    )


def _run_stage(adapter, spec: StageSpec, seed: int, budget_s: float) -> Dict[str, Any]:
    """Execute one stage and decode its sample into a plan."""
    start = time.perf_counter()
    solver = make_solver(spec.solver, **spec.options_dict())
    kwargs: Dict[str, Any] = {}
    if supports_time_budget(solver):
        kwargs["time_budget"] = budget_s
    result = solver.solve(adapter.compiled(), seed=seed, **kwargs)
    plan, cost, valid = adapter.decode(result.sample)
    seconds = time.perf_counter() - start
    return {
        "stage": spec.solver,
        "seconds": seconds,
        # a cooperative solver that used (almost) its whole slice was
        # budget-truncated: its runtime is a *lower bound* on what the
        # solver wanted, not the solver's intrinsic speed
        "truncated": "time_budget" in kwargs and seconds >= 0.9 * budget_s,
        "energy": float(result.energy),
        "cost": cost,
        "valid": valid,
        "plan": plan,
    }
