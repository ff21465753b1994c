"""Aggregation of differential-sweep rows into a report.

The JSON form (:meth:`VerificationReport.to_dict`) deliberately
excludes anything wall-clock — timings live only in the text rendering
— so a report for a fixed ``(suite, solvers, seed, inject)`` tuple is
byte-identical across runs and worker counts, and can be diffed or
snapshot-tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, List, Optional, Sequence

__all__ = ["SolverSummary", "VerificationReport", "summarize"]

_GAP_ATOL = 1e-9


@dataclass
class SolverSummary:
    """Per-solver aggregate over every case the solver ran on."""

    solver: str
    cases: int = 0
    valid: int = 0
    optimal: int = 0  # valid plans matching the domain-optimum cost
    violations: int = 0
    cost_gaps: List[float] = field(default_factory=list)

    @property
    def invalid_rate(self) -> float:
        return 1.0 - self.valid / self.cases if self.cases else 0.0

    @property
    def mean_cost_gap(self) -> Optional[float]:
        if not self.cost_gaps:
            return None
        return sum(self.cost_gaps) / len(self.cost_gaps)

    @property
    def max_cost_gap(self) -> Optional[float]:
        return max(self.cost_gaps) if self.cost_gaps else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "solver": self.solver,
            "cases": self.cases,
            "valid": self.valid,
            "optimal": self.optimal,
            "invalid_rate": round(self.invalid_rate, 6),
            "mean_cost_gap": (
                None if self.mean_cost_gap is None else round(self.mean_cost_gap, 6)
            ),
            "max_cost_gap": (
                None if self.max_cost_gap is None else round(self.max_cost_gap, 6)
            ),
            "violations": self.violations,
        }


@dataclass
class VerificationReport:
    """Everything one ``repro verify`` run produced."""

    suite: str
    seed: int
    inject: str
    solvers: List[str]
    cases: List[str]
    rows: List[Dict[str, Any]]
    summaries: List[SolverSummary]
    violations: List[Dict[str, Any]]
    checks: int
    seconds: float  # total point time; NOT part of to_dict()

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_violation(self) -> Optional[Dict[str, Any]]:
        return self.violations[0] if self.violations else None

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON form (no timings)."""
        return {
            "suite": self.suite,
            "seed": self.seed,
            "inject": self.inject,
            "ok": self.ok,
            "checks": self.checks,
            "solvers": list(self.solvers),
            "cases": list(self.cases),
            "summaries": [s.to_dict() for s in self.summaries],
            "violations": list(self.violations),
            "rows": list(self.rows),
        }

    def format_text(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"verification suite={self.suite} seed={self.seed} "
            f"cases={len(self.cases)} checks={self.checks} "
            f"violations={len(self.violations)} ({self.seconds:.1f}s)"
        ]
        if self.inject != "none":
            lines.append(f"  injected bug: {self.inject}")
        header = (
            f"  {'solver':<12} {'cases':>5} {'valid':>5} {'optimal':>7} "
            f"{'inv-rate':>8} {'mean-gap':>9} {'max-gap':>9} {'viol':>5}"
        )
        lines.append(header)
        for s in self.summaries:
            mean_gap = "-" if s.mean_cost_gap is None else f"{s.mean_cost_gap:.4f}"
            max_gap = "-" if s.max_cost_gap is None else f"{s.max_cost_gap:.4f}"
            lines.append(
                f"  {s.solver:<12} {s.cases:>5} {s.valid:>5} {s.optimal:>7} "
                f"{s.invalid_rate:>8.2%} {mean_gap:>9} {max_gap:>9} "
                f"{s.violations:>5}"
            )
        for violation in self.violations:
            lines.append(
                "  VIOLATION: "
                f"invariant '{violation.get('invariant')}' violated by "
                f"{violation.get('subject')}: {violation.get('message')}"
            )
        return "\n".join(lines)


def _row_violations(row: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = []
    for violation in row.get("violations", ()):
        entry = dict(violation)
        entry.setdefault("case_id", row.get("case_id"))
        out.append(entry)
    return out


def summarize(
    suite: str,
    seed: int,
    solvers: Sequence[str],
    cases: Sequence[str],
    rows: Sequence[Dict[str, Any]],
    inject: str,
    seconds: float,
    per_solver_types: AbstractSet[str],
) -> VerificationReport:
    """Fold sweep rows into per-solver summaries + a flat violation list.

    Rows whose ``type`` is in ``per_solver_types`` count as one check
    each and aggregate per solver; every other row contributes its
    ``checks`` count.
    """
    by_solver: Dict[str, SolverSummary] = {}
    violations: List[Dict[str, Any]] = []
    checks = 0
    for row in rows:
        violations.extend(_row_violations(row))
        if row.get("type") not in per_solver_types:
            checks += int(row.get("checks", 0))
            continue
        checks += 1
        name = row["solver"]
        summary = by_solver.setdefault(name, SolverSummary(solver=name))
        summary.cases += 1
        summary.violations += len(row.get("violations", ()))
        if row.get("valid"):
            summary.valid += 1
            cost = row.get("cost")
            oracle_cost = row.get("oracle_cost")
            if cost is not None and oracle_cost is not None:
                if cost <= oracle_cost + _GAP_ATOL:
                    summary.optimal += 1
                gap = row.get("cost_gap_rel")
                if gap is not None:
                    summary.cost_gaps.append(float(gap))

    return VerificationReport(
        suite=suite,
        seed=seed,
        inject=inject,
        solvers=list(solvers),
        cases=list(cases),
        rows=list(rows),
        summaries=[by_solver[name] for name in sorted(by_solver)],
        violations=violations,
        checks=checks,
        seconds=seconds,
    )
