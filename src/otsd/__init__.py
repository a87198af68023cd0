"""Transmission switching with controlled post-contingency de-energization.

A DC-approximated grid, an N-1 contingency set, and a branch open/close
decision: eliminate every base-case and post-contingency thermal violation
while minimizing probability-weighted loss of load, accepting that islands
stranded by a contingency black out.
"""

from .backend import ScipyHighsBackend, Status
from .case_io import RawCase, ResultDocument, load_case, parse_case, write_result
from .dc_engine import (
    SecurityAnalyzer,
    SecurityReport,
    dc_power_flow,
    ptdf_matrix,
    rebalance,
    security_analysis,
    structural_risk,
)
from .grid import (
    Branch,
    Bus,
    Contingency,
    ContingencySet,
    Grid,
    ProbabilityModel,
    SwitchConfig,
    UNLIMITED,
    build_grid,
    n_minus_1_contingencies,
)
from .heuristic import HeuristicParams, most_constraining
from .heuristic import solve as heuristic_solve
from .milp_model import (
    BigMConfig,
    OtsdModel,
    build_base_case,
    fixed_config_flows,
    reduce_violations,
    remove_unnecessary_openings,
    solve_extensive,
)
from .oracle import bfs_energized, exhaustive_otsd
from .results import SolveResult, SolveStatus

__all__ = [
    "Branch", "Bus", "Contingency", "ContingencySet", "Grid", "ProbabilityModel",
    "SwitchConfig", "UNLIMITED", "build_grid", "n_minus_1_contingencies",
    "RawCase", "ResultDocument", "load_case", "parse_case", "write_result",
    "SecurityAnalyzer", "SecurityReport", "dc_power_flow", "ptdf_matrix",
    "rebalance", "security_analysis", "structural_risk",
    "ScipyHighsBackend", "Status",
    "BigMConfig", "OtsdModel", "build_base_case", "fixed_config_flows",
    "reduce_violations", "remove_unnecessary_openings", "solve_extensive",
    "HeuristicParams", "heuristic_solve", "most_constraining",
    "bfs_energized", "exhaustive_otsd",
    "SolveResult", "SolveStatus",
]

__version__ = "0.1.0"
