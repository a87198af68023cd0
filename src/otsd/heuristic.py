"""Fast feasible-solution finder.

Outer loop: security-analyze the incumbent, add the most constraining
violating contingency to the working set. Inner loop: minimize overloads with
switching restricted to hop neighborhoods of the monitored branches, growing
those neighborhoods while residual violations persist.

Each inner iteration screens before it builds a program: the plans that open
at most ``SCREENED_OPENINGS`` switchable branches go through the run's own
analyzer, by size and then in lexicographic order of branch ids, and the
first that overloads nothing in the base case and in every working case ends
the inner loop. That is exact. The overload program's objective is a sum of
non-negative slacks, so a plan with no overload is one of its optima; and
every smaller subset of the switchable set was screened before it, so the
removal step would return the plan unchanged and is skipped. The one
caveat: the program bounds angle spreads by ``BigMConfig.delta_theta_max``
and the screen does not, so the screen may accept a plan the program would
cut off; the screen's verdict is the one every result is re-checked by.
Only when the screen finds no such plan does the overload program run.

Openings that the working set does not need are then removed by screening
too: subsets of the reduced plan's openings are screened, fewest first, and
the first one that keeps the working cases and the base case within limits
is the new incumbent. Either search's screen is the outer iteration's
security analysis.

Both searches take their plans in chunks of ``PLAN_CHUNK``. One batched
LODF pass (``SecurityAnalyzer.may_hold``) computes the base flows and the
flows after each single-branch working case for every plan of a chunk, and
only the plans it cannot rule out get the base-case query and the full
screen, in order. The search returns what a plan-by-plan search returns.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import graph_ops, milp_model
from .backend import ScipyHighsBackend, Status
from .dc_engine import SecurityAnalyzer, SecurityReport
from .errors import DisconnectedCase, EmptyReport
from .grid import Contingency, ContingencySet, Grid, SwitchConfig
from .milp_model import BASE_CASE
from .results import SolveResult, SolveStatus

INFEASIBLE = "infeasible"

# openings the inner loop screens before it builds a program. Plans of three
# now cost less than the program they could save: on 57@0.9 a search of 834
# took 37 ms and found none (the filter passed 306, each of which splits the
# grid), where the program took 92 ms. The value stays at 2 because a larger
# one can change the plans the heuristic returns.
SCREENED_OPENINGS = 2

# plans that one call of ``SecurityAnalyzer.may_hold`` filters
PLAN_CHUNK = 128


@dataclass(frozen=True)
class HeuristicParams:
    nh_0: int = 1
    nh_max: int = 4
    tolerance: float = 1e-6
    time_limit: float | None = None

    def __post_init__(self):
        if not 0 <= self.nh_0 <= self.nh_max:
            raise ValueError("need 0 <= nh_0 <= nh_max")


@dataclass
class HeuristicState:
    working: list[Contingency] = field(default_factory=list)
    monitored: dict[int | None, set[int]] = field(default_factory=dict)
    hop_counts: dict[int, int] = field(default_factory=dict)
    switchable: frozenset[int] = frozenset()
    incumbent: SwitchConfig = field(default_factory=SwitchConfig.all_closed)
    bound: float | None = None  # objective of the all-closed screen
    outer_iter: int = 0
    inner_iter: int = 0
    timings_ms: dict[str, float] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)

    def monitored_union(self) -> set[int]:
        out: set[int] = set()
        for branches in self.monitored.values():
            out |= branches
        return out

    def add_time(self, phase: str, seconds: float) -> None:
        self.timings_ms[phase] = self.timings_ms.get(phase, 0.0) + seconds * 1000.0


def most_constraining(report: SecurityReport) -> int:
    """Violating contingency with the most violated branches.

    Ties break on larger total overload magnitude, then lowest contingency id;
    the base pseudo-case never competes.
    """
    candidates = [(cid, detail) for cid, detail in
                  report.violating_contingencies.items() if cid is not None]
    if not candidates:
        raise EmptyReport("no violating contingency to pick")
    return min(candidates, key=lambda item: (
        -len(item[1].violated_branches),
        -sum(item[1].violated_branches.values()),
        item[0]))[0]


def recompute_switchable(grid: Grid, state: HeuristicState) -> frozenset[int]:
    """Union of hop neighborhoods of all monitored branches."""
    out: set[int] = set()
    for e in state.monitored_union():
        out |= graph_ops.hop(grid, e, state.hop_counts[e])
    state.switchable = frozenset(out)
    return state.switchable


def expand_switchable(grid: Grid, state: HeuristicState, params: HeuristicParams,
                      residual: set[int | None],
                      new_violations: dict[int | None, set[int]]) -> str | None:
    """Grow monitored sets and hop counts after a residual-violation round.

    Newly violated branches enter at nh_0; every branch already monitored for
    a residual case has its hop count incremented, and incrementing past
    nh_max reports infeasibility (a status, not an exception).
    """
    if not residual:
        return None
    to_expand: set[int] = set()
    for case in residual:
        mb = state.monitored.setdefault(case, set())
        mb |= new_violations.get(case, set())
        to_expand |= mb
    for vb in sorted(to_expand):
        if vb not in state.hop_counts:
            state.hop_counts[vb] = params.nh_0
        else:
            if state.hop_counts[vb] >= params.nh_max:
                return INFEASIBLE
            state.hop_counts[vb] += 1
    recompute_switchable(grid, state)
    return None


def first_secure_plan(analyzer: SecurityAnalyzer, candidates, largest: int,
                      working: list[Contingency], deadline: float | None = None
                      ) -> tuple[SwitchConfig | None, SecurityReport | None, int]:
    """First plan opening at most ``largest`` of ``candidates`` (branch ids
    of the analyzer's grid) that holds.

    Plans are tried by size, then in lexicographic order of branch ids, and
    the first whose base flows overload no branch and whose screen flags no
    working case wins: a minimum-cardinality plan, with the lowest branch
    ids among its ties. The base case is held to its limits whether or not
    the contingency set names it, as the programs hold it. A plan that
    disconnects the grid is skipped, and so is one whose base case
    overloads, before its screen; ``analyze`` then only ever sees a
    topology the base-case query has already built. Returns the plan, its
    screen and the number of plans tried, with ``None`` for the plan and
    the screen when none holds or when ``deadline`` (a ``time.monotonic``
    instant) passes before a plan is tried.

    Each chunk of ``PLAN_CHUNK`` plans is filtered first by
    ``SecurityAnalyzer.may_hold``, and only the plans it passes take the
    exact path above, in order. That is exact: the filter's flows are the
    screen's up to float dust, and it rejects a plan only past the
    tolerance plus a margin far above that dust, so every plan it rejects
    would fail the exact path too. It passes every plan that splits the
    grid and leaves cases of several branches alone, so those too are
    decided by the exact path. The plan returned, its screen and the count
    of plans tried (rejected ones included) are those of trying every plan
    in turn.
    """
    grid = analyzer.grid
    ids = {c.id for c in working}
    limit, tolerance = grid.limit, analyzer.tolerance
    candidates = sorted(candidates)
    tried = 0
    for size in range(min(largest, len(candidates)) + 1):
        subsets = itertools.combinations(candidates, size)
        while chunk := list(itertools.islice(subsets, PLAN_CHUNK)):
            if deadline is not None and time.monotonic() > deadline:
                return None, None, tried
            plans = [[grid.branch_index(e) for e in subset] for subset in chunk]
            for n in np.flatnonzero(analyzer.may_hold(plans, working)).tolist():
                if deadline is not None and time.monotonic() > deadline:
                    return None, None, tried + n
                plan = SwitchConfig(frozenset(chunk[n]))
                try:
                    base = analyzer.contingency_state(plan, None).flows
                except DisconnectedCase:
                    continue
                if np.any(np.abs(base) - limit > tolerance):
                    continue
                report = analyzer.analyze(plan)
                if ids.isdisjoint(report.violating_contingencies):
                    return plan, report, tried + n + 1
            tried += len(chunk)
    return None, None, tried


def fewest_openings(analyzer: SecurityAnalyzer, config: SwitchConfig,
                    working: list[Contingency], deadline: float | None = None
                    ) -> tuple[SwitchConfig, SecurityReport, int]:
    """Fewest of ``config``'s openings that keep the working cases secure.

    ``first_secure_plan`` over the openings of ``config``. Re-closing
    branches of a connected plan keeps it connected, so every subset
    screens. Returns the plan, its screen and the number of plans tried.
    When none holds (the input itself fails, by screening dust) or the
    deadline passes, the input plan is returned with its screen.
    """
    plan, report, tried = first_secure_plan(analyzer, config.open_branches, config.n_open,
                                            working, deadline)
    if plan is None:
        return config, analyzer.analyze(config), tried
    return plan, report, tried


def iteration_log(state: HeuristicState) -> list[dict]:
    """Copy of the per-iteration trace collected so far."""
    return [dict(entry) for entry in state.log]


def _result(status: SolveStatus, state: HeuristicState,
            config: SwitchConfig | None = None,
            report: SecurityReport | None = None) -> SolveResult:
    res = SolveResult(status=status, config=config, bound=state.bound,
                      timings_ms=dict(state.timings_ms),
                      iterations=iteration_log(state))
    if config is not None and report is not None:
        res.objective = report.total_objective
        res.openings = sorted(config.open_branches)
        res.loss_of_load = dict(report.loss_of_load)
    return res


def solve(grid: Grid, contingencies: ContingencySet,
          params: HeuristicParams | None = None,
          backend_factory=None) -> SolveResult:
    """Run the full loop from the all-closed configuration.

    Returns a feasible configuration verified by a final security analysis,
    or an infeasibility/timeout status. Each inner iteration first screens
    the plans of at most ``SCREENED_OPENINGS`` switchable openings; the first
    that clears the base case and the working cases ends the inner loop with
    no program built, since zero overload is an optimum of the overload
    program and no smaller plan holds (exact up to the program's angle
    big-M, which the screen does not impose). The program runs only when
    the screen finds nothing; a search cut short by the deadline finds
    nothing, and the run ends in TIMEOUT. Hops grow only on the residual of an
    optimal subproblem; one stopped at a limit with residual overload ends
    the run in TIMEOUT. True infeasibility is only claimed when the hop
    ceiling saturates the line graph; otherwise the status says
    infeasible-within-horizon. Every result carries the objective of the
    first screen, of the all-closed grid, as ``bound``: the structural risk,
    a lower bound on the objective of any configuration.
    """
    params = params or HeuristicParams()
    factory = backend_factory or ScipyHighsBackend
    state = HeuristicState()
    deadline = None if params.time_limit is None else time.monotonic() + params.time_limit

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() > deadline

    def solve_time_limit() -> float | None:
        return None if deadline is None else max(0.0, deadline - time.monotonic())

    def infeasible_status(residual: set[int | None]) -> SolveStatus:
        if BASE_CASE in residual:
            return SolveStatus.BASE_CASE_INFEASIBLE
        if params.nh_max >= graph_ops.line_graph_diameter(grid):
            return SolveStatus.INFEASIBLE
        return SolveStatus.INFEASIBLE_WITHIN_HORIZON

    analyzer = SecurityAnalyzer(grid, contingencies, params.tolerance)
    config = SwitchConfig.all_closed()

    t = time.monotonic()
    report = analyzer.analyze(config)
    state.add_time("security_analysis", time.monotonic() - t)
    state.bound = report.total_objective
    state.log.append({
        "phase": "security_analysis", "outer": 0,
        "n_working": len(state.working), "n_switchable": 0,
        "n_violating": len(report.violating_contingencies),
        "openings": 0, "objective": report.total_objective,
    })
    if report.clean:
        return _result(SolveStatus.FEASIBLE, state, config, report)

    # seed the working set and monitored branches from the first analysis
    for cid, detail in report.violating_contingencies.items():
        if cid is not None:
            state.working.append(contingencies.by_id(cid))
        state.monitored[cid] = set(detail.violated_branches)
        for mb in detail.violated_branches:
            if mb not in state.hop_counts:
                state.hop_counts[mb] = params.nh_0
    recompute_switchable(grid, state)

    while True:
        state.outer_iter += 1
        # inner loop: push overloads to zero on the working set
        while True:
            state.inner_iter += 1
            t = time.monotonic()
            vsol, report, screens = first_secure_plan(
                analyzer, state.switchable, SCREENED_OPENINGS, state.working, deadline)
            state.add_time("screen_search", time.monotonic() - t)
            state.log.append({
                "phase": "screen_search", "outer": state.outer_iter,
                "inner": state.inner_iter, "n_working": len(state.working),
                "n_switchable": len(state.switchable), "screens": screens,
                "openings": None if vsol is None else sorted(vsol.open_branches),
            })
            if vsol is not None:
                break
            if out_of_time():
                return _result(SolveStatus.TIMEOUT, state)
            t = time.monotonic()
            rv = milp_model.reduce_violations(
                grid, state.working, state.switchable,
                backend_factory=factory, time_limit=solve_time_limit(),
                tolerance=params.tolerance)
            state.add_time("reduce_violations", time.monotonic() - t)
            if rv.status is Status.TIMEOUT or rv.config is None:
                return _result(SolveStatus.TIMEOUT, state)
            state.incumbent = rv.config
            state.log.append({
                "phase": "reduce_violations", "outer": state.outer_iter,
                "inner": state.inner_iter, "n_working": len(state.working),
                "n_switchable": len(state.switchable),
                "residual_overload": sum(sum(v.values())
                                         for v in rv.overloads.values()),
                "openings": rv.config.n_open, "objective": rv.objective,
            })
            if not rv.residual:
                break
            if rv.status is not Status.OPTIMAL:
                # a limit hit proves nothing about the residual: no hop growth
                return _result(SolveStatus.TIMEOUT, state)
            new_viol = {case: set(branches) for case, branches in rv.overloads.items()}
            verdict = expand_switchable(grid, state, params, rv.residual, new_viol)
            if verdict == INFEASIBLE:
                return _result(infeasible_status(rv.residual), state)

        if vsol is None:
            t = time.monotonic()
            vsol, report, screens = fewest_openings(analyzer, rv.config, state.working,
                                                    deadline)
            state.add_time("simplify", time.monotonic() - t)
            before = rv.config
        else:
            # every smaller subset of the switchable set was screened first
            before, screens = vsol, 0
        state.incumbent = vsol
        state.log.append({
            "phase": "simplify", "outer": state.outer_iter,
            "openings_before": sorted(before.open_branches),
            "openings_after": sorted(vsol.open_branches), "screens": screens,
        })

        if out_of_time():
            return _result(SolveStatus.TIMEOUT, state)
        state.log.append({
            "phase": "security_analysis", "outer": state.outer_iter,
            "n_working": len(state.working), "n_switchable": len(state.switchable),
            "n_violating": len(report.violating_contingencies),
            "openings": vsol.n_open, "objective": report.total_objective,
        })
        if report.clean:
            return _result(SolveStatus.FEASIBLE, state, vsol, report)

        if all(cid is None for cid in report.violating_contingencies):
            # only the base case is flagged although the working set held it
            # to zero overload: re-running cannot change anything
            return _result(SolveStatus.BASE_CASE_INFEASIBLE, state)

        cid = most_constraining(report)
        state.working.append(contingencies.by_id(cid))
        detail = report.violating_contingencies[cid]
        state.monitored.setdefault(cid, set()).update(detail.violated_branches)
        for mb in detail.violated_branches:
            if mb not in state.hop_counts:
                state.hop_counts[mb] = params.nh_0
        recompute_switchable(grid, state)
