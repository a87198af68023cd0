"""Solver-level result types shared by the exact and heuristic solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .grid import SwitchConfig


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    # hop ceiling reached below the line-graph diameter: no proof of true
    # infeasibility, only that no fix exists within the search horizon
    INFEASIBLE_WITHIN_HORIZON = "infeasible-within-horizon"
    BASE_CASE_INFEASIBLE = "base-case-infeasible"
    TIMEOUT = "timeout"

    @property
    def is_feasible(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    status: SolveStatus
    config: SwitchConfig | None = None
    objective: float | None = None
    bound: float | None = None  # the all-closed screen's objective: a proven lower bound
    openings: list[int] = field(default_factory=list)
    loss_of_load: dict[int, float] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)
    iterations: list[dict] = field(default_factory=list)

    @property
    def n_openings(self) -> int:
        return len(self.openings)
