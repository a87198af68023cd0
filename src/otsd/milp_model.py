"""MILP programs over the backend contract: the extensive switching problem,
the fixed-configuration security program, violation reduction with overload
slacks, and opening minimization. All on/off products use the standard
binary-times-bounded-continuous reformulation; the energization indicators
stay continuous and disconnection cutsets are separated lazily.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from . import graph_ops
from .backend import ScipyHighsBackend, Status
from .dc_engine import SecurityAnalyzer, SecurityReport
from .errors import DuplicateContingency, InsecurePlan
from .grid import Contingency, ContingencySet, Grid, SwitchConfig
from .results import SolveResult, SolveStatus

# thermal handling for a constraint block
ENFORCE = "enforce"
RELAX = "relax"
OMIT = "omit"

BASE_CASE = None  # pseudo-case id for the no-contingency state

SEPARATION_TOL = 1e-6
SIGMA_CAP = 10.0  # default ceiling on the generation rescale factor


@dataclass(frozen=True)
class BigMConfig:
    """Bounds used by the linearizations.

    ``delta_theta_max`` bounds the angle spread across any single branch,
    open or closed, through the on/off reformulation rows; ``sigma_max``
    defaults to total load over the smallest positive per-bus generation,
    capped at ``SIGMA_CAP``. The connectivity certificate's virtual flows are
    bounded by the bus count.
    """

    delta_theta_max: float = 2.0 * math.pi
    sigma_max: float | None = None

    def __post_init__(self):
        if not self.delta_theta_max > 0:
            raise ValueError("delta_theta_max must be positive")
        if self.sigma_max is not None and self.sigma_max < 1.0:
            raise ValueError("sigma_max must be at least 1")

    def sigma_bound(self, grid: Grid) -> float:
        if self.sigma_max is not None:
            return self.sigma_max
        positive = [g for g in grid.pg if g > 0]
        if not positive:
            return 1.0
        raw = grid.total_load / min(positive)
        return float(max(1.0, min(raw, SIGMA_CAP)))


def security_program_bounds(grid: Grid) -> BigMConfig:
    """Bounds that provably contain every rebalanced operating state.

    Rescaled total generation equals served load, and no branch of a DC
    network carries more than the total sourced power, so the angle offset of
    any bus from the reference is at most total load times the sum of all
    reactances (a loose but safe path bound; angles accumulate along radial
    chains). The rescale factor never exceeds total load over the smallest
    single positive generation. Used by the fixed-configuration security
    program, where a clipped bound would silently falsify the oracle; the
    wide values are harmless there because the switching state is fixed.
    """
    x_total = float((1.0 / grid.susceptance).sum())
    theta_span = max(2.0 * math.pi, 2.0 * grid.total_load * x_total)
    positive = [g for g in grid.pg if g > 0]
    sigma = max(1.0, grid.total_load / min(positive)) * 1.01 if positive else 1.0
    return BigMConfig(delta_theta_max=theta_span, sigma_max=sigma)


def _spread(x, rows: np.ndarray) -> np.ndarray:
    return x if isinstance(x, np.ndarray) else np.full(rows.shape, x)


def _coo(*terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's COO triples from (row array, cols, vals) terms; scalars repeat."""
    return (np.concatenate([r for r, _, _ in terms]),
            np.concatenate([_spread(c, r) for r, c, _ in terms]),
            np.concatenate([_spread(v, r) for r, _, v in terms]))


def _interleave(count: int, *columns) -> np.ndarray:
    """Row bounds of ``count`` groups of consecutive rows, one column per row of a group."""
    out = np.empty((count, len(columns)))
    for q, col in enumerate(columns):
        out[:, q] = col
    return out.ravel()


class _ById(Mapping):
    """Read-only dict of one value array by bus or branch id. It keeps the
    array and shares the grid's ids, so a solved state takes about a sixth
    of the memory of a dict of floats."""

    __slots__ = ("_ids", "_index", "_values")

    def __init__(self, ids: np.ndarray, index, values: np.ndarray):
        self._ids, self._index, self._values = ids, index, values

    def __getitem__(self, key: int) -> float:
        return float(self._values[self._index(key)])

    def __iter__(self):
        return iter(self._ids.tolist())

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class _Block:
    """Columns of one case (the base case or a contingency), by bus or branch index."""

    live: np.ndarray  # branches in service in this case
    theta: np.ndarray
    flow: np.ndarray
    overload: np.ndarray  # RELAX thermal slacks, one per limited live branch ...
    overload_branch: np.ndarray  # ... and the branch index of each
    pi: np.ndarray | None = None  # energization; contingencies only
    sigma: int | None = None  # generation rescale factor
    ll: int | None = None  # loss of load


@dataclass
class _Movable:
    """Rows and flow bounds through which a movable block takes its trip, by branch index."""

    cid: int  # the contingency the block stands for now
    ohm: np.ndarray  # (branches, 4) Ohm rows
    coupling: np.ndarray  # (branches, 2) energization-coupling rows
    flow_bound: np.ndarray  # flow bound of a branch in service


class OtsdModel:
    """One backend model holding the base-case block and appended contingency blocks.

    Every variable group is one contiguous column range, and every block kind
    (Ohm's law on/off rows, nodal balance, energization coupling, sigma*pi
    products, thermal slacks, the connectivity certificate, loss of load,
    cutsets) is one array call on the backend. ``v`` holds the switching
    columns by branch index and ``blocks`` one column record per case, so
    every fixing, objective and read-out is one array operation; contingency
    blocks are append-only and cutset constraints are deduplicated through a
    registry that maps each cutset to its row.

    One contingency block may be movable: ``move_trip`` re-targets it to
    another contingency through bound changes alone, which the backend
    applies to its live model in place, so the re-solve starts from the last
    basis.
    """

    def __init__(self, grid: Grid, bigm: BigMConfig, backend: ScipyHighsBackend,
                 base_thermal: str = ENFORCE):
        self.grid = grid
        self.backend = backend
        # delta_theta_max bounds the spread across one branch (the on/off
        # reformulation enforces it, open branches included); bus angles
        # themselves only get a sanity box wide enough to never bind, since
        # offsets accumulate along radial paths
        self.theta_bound = grid.n_buses * bigm.delta_theta_max
        self.sigma_max = bigm.sigma_bound(grid)
        self._big_m = grid.susceptance * bigm.delta_theta_max  # Ohm big-M by branch

        self.blocks: dict[int | None, _Block] = {}
        self.contingencies: dict[int, Contingency] = {}
        self._cutset_registry: dict[tuple, int] = {}  # (cid, bus, cut) -> row
        self._movable: _Movable | None = None

        self._build_base(base_thermal)

    # -- shared pieces -------------------------------------------------------

    def _vars(self, count: int, lb, ub, binary: bool = False) -> np.ndarray:
        return np.asarray(self.backend.add_vars(count, lb, ub, binary))

    def _angles(self) -> np.ndarray:
        lb = np.full(self.grid.n_buses, -self.theta_bound)
        ub = np.full(self.grid.n_buses, self.theta_bound)
        lb[self.grid.ref_idx] = ub[self.grid.ref_idx] = 0.0
        return self._vars(self.grid.n_buses, lb, ub)

    def _flow_bound(self, thermal: str) -> np.ndarray:
        if thermal == ENFORCE:
            return np.minimum(self._big_m, self.grid.limit)
        return self._big_m

    def _flows(self, thermal: str, live: np.ndarray) -> np.ndarray:
        """Flow columns; a tripped branch's flow is fixed at zero."""
        bound = self._flow_bound(thermal)
        return self._vars(self.grid.n_branches, np.where(live, -bound, 0.0),
                          np.where(live, bound, 0.0))

    def _ohm_bounds(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of the four Ohm rows of each branch in ``ks``, in service."""
        m = self._big_m[ks]
        return (_interleave(len(ks), -math.inf, 0.0, -math.inf, -m),
                _interleave(len(ks), 0.0, math.inf, m, math.inf))

    def _add_ohm(self, live: np.ndarray, th: np.ndarray, f: np.ndarray) -> range:
        """Flow equals susceptance times angle difference when closed, else zero."""
        grid = self.grid
        ks = np.flatnonzero(live)
        b, m = grid.susceptance[ks], self._big_m[ks]
        fk, vk = f[ks], self.v[ks]
        tho, thd = th[grid.origin_idx[ks]], th[grid.dest_idx[ks]]
        r = 4 * np.arange(len(ks))
        return self.backend.add_rows(
            *_coo((r, fk, 1.0), (r, vk, -m),
                  (r + 1, fk, 1.0), (r + 1, vk, m),
                  (r + 2, thd, b), (r + 2, tho, -b), (r + 2, fk, -1.0), (r + 2, vk, m),
                  (r + 3, thd, b), (r + 3, tho, -b), (r + 3, fk, -1.0), (r + 3, vk, -m)),
            *self._ohm_bounds(ks))

    def _add_thermal(self, thermal: str, live: np.ndarray,
                     f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Overload slack columns and the branch index of each (none unless RELAX)."""
        if thermal != RELAX:
            none = np.empty(0, dtype=int)
            return none, none  # ENFORCE is handled through flow variable bounds
        grid = self.grid
        ks = np.flatnonzero(live & np.isfinite(grid.limit))
        s = self._vars(len(ks), 0.0, math.inf)
        limit, r = grid.limit[ks], 2 * np.arange(len(ks))
        self.backend.add_rows(
            *_coo((r, f[ks], 1.0), (r, s, -1.0), (r + 1, f[ks], 1.0), (r + 1, s, 1.0)),
            _interleave(len(ks), -math.inf, -limit), _interleave(len(ks), limit, math.inf))
        return s, ks

    # -- base case -----------------------------------------------------------

    def _build_base(self, thermal: str) -> None:
        grid, be = self.grid, self.backend
        o, d = grid.origin_idx, grid.dest_idx
        live = np.ones(grid.n_branches, dtype=bool)
        self.v = self._vars(grid.n_branches, 0.0, 1.0, binary=True)
        th = self._angles()
        f = self._flows(thermal, live)
        self._add_ohm(live, th, f)
        balance = grid.pd - grid.pg
        be.add_rows(*_coo((d, f, 1.0), (o, f, -1.0)), balance, balance)
        self.blocks[BASE_CASE] = _Block(live, th, f, *self._add_thermal(thermal, live, f))

        # single-commodity connectivity certificate: the reference sources
        # one unit for every other bus, each bus absorbs one
        big_v = float(grid.n_buses)
        cf = self._vars(grid.n_branches, -big_v, big_v)
        r = 2 * np.arange(grid.n_branches)
        be.add_rows(*_coo((r, cf, 1.0), (r, self.v, -big_v),
                          (r + 1, cf, 1.0), (r + 1, self.v, big_v)),
                    _interleave(grid.n_branches, -math.inf, 0.0),
                    _interleave(grid.n_branches, 0.0, math.inf))
        delta = np.ones(grid.n_buses)
        delta[grid.ref_idx] = 1.0 - grid.n_buses
        be.add_rows(*_coo((d, cf, 1.0), (o, cf, -1.0)), delta, delta)

    # -- contingency blocks ----------------------------------------------------

    def _live(self, c: Contingency) -> np.ndarray:
        return ~np.isin(self.grid.branch_id, list(c.tripped))

    def add_contingency_block(self, c: Contingency, thermal: str = ENFORCE,
                              movable: bool = False) -> None:
        """Append the block of contingency ``c``.

        A tripped branch's flow is fixed at zero, and it has no Ohm,
        energization-coupling or thermal rows. A movable block has those rows
        for every branch and frees the tripped branches' Ohm and coupling
        rows instead, so ``move_trip`` can re-target it by bound changes.
        """
        if c.id in self.contingencies:
            raise DuplicateContingency(f"contingency {c.id} already instantiated")
        grid, be = self.grid, self.backend
        o, d, n = grid.origin_idx, grid.dest_idx, grid.n_buses
        self.contingencies[c.id] = c
        live = self._live(c)
        rows_for = np.ones_like(live) if movable else live

        th = self._angles()
        f = self._flows(thermal, live)
        # energization is fixed at 1 at the reference
        pi = self._vars(n, np.arange(n) == grid.ref_idx, 1.0)
        sigma = be.add_var(0.0, self.sigma_max)

        ohm = self._add_ohm(rows_for, th, f)

        # energization coupling across closed, non-tripped branches
        ks = np.flatnonzero(rows_for)
        po, pd_, vk = pi[o[ks]], pi[d[ks]], self.v[ks]
        r = 2 * np.arange(len(ks))
        coupling = be.add_rows(*_coo((r, po, 1.0), (r, pd_, -1.0), (r, vk, 1.0),
                                     (r + 1, pd_, 1.0), (r + 1, po, -1.0), (r + 1, vk, 1.0)),
                               -math.inf, np.ones(2 * len(ks)))

        # sigma * pi products for generator buses
        gen = np.flatnonzero(grid.pg > 0)
        y = self._vars(len(gen), 0.0, self.sigma_max)
        pig, smax, r = pi[gen], self.sigma_max, 3 * np.arange(len(gen))
        be.add_rows(*_coo((r, y, 1.0), (r, pig, -smax),
                          (r + 1, sigma, 1.0), (r + 1, y, -1.0),
                          (r + 2, sigma, 1.0), (r + 2, y, -1.0), (r + 2, pig, smax)),
                    _interleave(len(gen), -math.inf, 0.0, -math.inf),
                    _interleave(len(gen), 0.0, math.inf, smax))

        # nodal balance with rescaled generation and served demand
        load = np.flatnonzero(grid.pd > 0)
        be.add_rows(*_coo((d, f, 1.0), (o, f, -1.0), (gen, y, grid.pg[gen]),
                          (load, pi[load], -grid.pd[load])),
                    np.zeros(n), np.zeros(n))

        overload, overload_branch = self._add_thermal(thermal, rows_for, f)

        total_pd = grid.total_load
        ll = be.add_var(0.0, total_pd)
        be.add_rows(*_coo((np.zeros(1, dtype=int), ll, 1.0),
                          (np.zeros(len(load), dtype=int), pi[load], grid.pd[load])),
                    total_pd, total_pd)
        self.blocks[c.id] = _Block(live, th, f, overload, overload_branch, pi, sigma, ll)
        if movable:
            self._movable = _Movable(c.id, np.reshape(ohm, (-1, 4)),
                                     np.reshape(coupling, (-1, 2)), self._flow_bound(thermal))
            self._free_rows(np.flatnonzero(~live))

    def _free_rows(self, ks: np.ndarray) -> None:
        """Free the Ohm and coupling rows of the movable block's branches ``ks``."""
        mv = self._movable
        self.backend.set_row_bounds(np.concatenate([mv.ohm[ks].ravel(), mv.coupling[ks].ravel()]),
                                    -math.inf, math.inf)

    def move_trip(self, c: Contingency) -> None:
        """Re-target the movable block to contingency ``c`` by bound changes.

        The previous trip's branches get their flow bounds and rows back;
        ``c``'s tripped flows are fixed at zero and their Ohm and coupling
        rows freed; the cutset rows separated for the previous trip are freed,
        since a cutset found under one trip can be invalid under another; and
        the loss-of-load objective moves to ``c``'s probability.
        """
        be, mv = self.backend, self._movable
        blk = self.blocks.pop(mv.cid)
        del self.contingencies[mv.cid]
        stale = [key for key in self._cutset_registry if key[0] == mv.cid]
        be.set_row_bounds([self._cutset_registry.pop(key) for key in stale],
                          -math.inf, math.inf)

        back = np.flatnonzero(~blk.live)
        be.set_bounds(blk.flow[back], -mv.flow_bound[back], mv.flow_bound[back])
        be.set_row_bounds(mv.ohm[back].ravel(), *self._ohm_bounds(back))
        be.set_row_bounds(mv.coupling[back].ravel(), -math.inf, 1.0)

        live = self._live(c)
        be.fix_var(blk.flow[~live], 0.0)
        self._free_rows(np.flatnonzero(~live))

        mv.cid = c.id
        self.contingencies[c.id] = c
        self.blocks[c.id] = replace(blk, live=live)
        self.set_loss_objective()

    # -- configuration handling -------------------------------------------------

    def fix_config(self, config: SwitchConfig) -> None:
        opened = np.isin(self.grid.branch_id, list(config.open_branches))
        self.backend.fix_var(self.v, np.where(opened, 0.0, 1.0))

    def force_closed_outside(self, switchable) -> None:
        self.backend.fix_var(self.v[~np.isin(self.grid.branch_id, list(switchable))], 1.0)

    def config_from_solution(self) -> SwitchConfig:
        opened = self.grid.branch_id[self.backend.solution[self.v] < 0.5]
        return SwitchConfig(frozenset(opened.tolist()))

    # -- objectives ---------------------------------------------------------------

    def set_loss_objective(self) -> None:
        self.backend.set_objective({self.blocks[cid].ll: c.probability
                                    for cid, c in self.contingencies.items()}, "min")

    def set_overload_objective(self) -> None:
        slacks = np.concatenate([blk.overload for blk in self.blocks.values()])
        self.backend.set_objective(dict.fromkeys(slacks.tolist(), 1.0), "min")

    def set_opening_objective(self) -> None:
        self.backend.set_objective(dict.fromkeys(self.v.tolist(), -1.0), "min",
                                   constant=float(self.v.size))

    # -- lazy cutset separation ------------------------------------------------------

    def separate_cutsets(self) -> list[tuple]:
        """Add disconnection cutsets violated by the current solution.

        For every contingency block and every bus carrying a positive
        energization value while graph-disconnected from the reference, the
        frontier cutset of its component is added; returns the new (cid, bus,
        cutset) triples (empty when the solution is connectivity-consistent).
        One labelling of the block-diagonal graph of every block's closed
        branches answers every bus of every block.
        """
        if not self.contingencies:
            return []
        grid, be = self.grid, self.backend
        x = be.solution
        closed = x[self.v] > 0.5
        by_id = np.argsort(grid.bus_id, kind="stable")  # bus indexes in bus-id order
        added: list[tuple] = []
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        live_by_block = np.array([self.blocks[cid].live for cid in self.contingencies])
        block_labels = graph_ops.component_labels(grid, closed & live_by_block)
        for cid, labels in zip(self.contingencies, block_labels):
            live, pi = self.blocks[cid].live, self.blocks[cid].pi
            stranded = by_id[(labels[by_id] != labels[grid.ref_idx])
                             & (x[pi[by_id]] > SEPARATION_TOL)]
            for i in stranded:
                ks = graph_ops.component_frontier(grid, labels, i)
                key = (cid, int(grid.bus_id[i]), frozenset(grid.branch_id[ks].tolist()))
                if key in self._cutset_registry:
                    continue
                # pi[bus] <= sum of v over the cut's branches still in service
                frontier = self.v[ks[live[ks]]]
                rows += [len(added)] * (1 + len(frontier))
                cols += [pi[i], *frontier]
                vals += [1.0] + [-1.0] * len(frontier)
                added.append(key)
        if added:
            new = be.add_rows(rows, cols, vals, -math.inf, np.zeros(len(added)))
            self._cutset_registry.update(zip(added, new))
        return added

    def solve_with_separation(self, time_limit: float | None = None) -> Status:
        """Solve, separate violated cutsets, and re-solve to the fixpoint."""
        deadline = None if time_limit is None else time.monotonic() + time_limit
        max_rounds = self.grid.n_buses * max(1, len(self.contingencies)) + 1
        status = Status.ERROR
        for _ in range(max_rounds):
            remaining = None
            if deadline is not None:
                remaining = max(0.01, deadline - time.monotonic())
            status = self.backend.solve(remaining)
            if not status.has_solution:
                return status
            if not self.separate_cutsets():
                return status
        return status

    # -- solution extraction -------------------------------------------------------

    def base_flow_values(self) -> Mapping[int, float]:
        return self.flow_values(BASE_CASE)

    def flow_values(self, case: int | None) -> Mapping[int, float]:
        x = self.backend.solution[self.blocks[case].flow]
        return _ById(self.grid.branch_id, self.grid.branch_index, x)

    def pi_values(self, cid: int) -> Mapping[int, float]:
        x = self.backend.solution[self.blocks[cid].pi]
        return _ById(self.grid.bus_id, self.grid.bus_index, x)

    def sigma_value(self, cid: int) -> float:
        return self.backend.value(self.blocks[cid].sigma)

    def ll_value(self, cid: int) -> float:
        return self.backend.value(self.blocks[cid].ll)

    def overload_values(self, case: int | None) -> dict[int, float]:
        blk = self.blocks[case]
        x = self.backend.solution[blk.overload]
        return dict(zip(self.grid.branch_id[blk.overload_branch].tolist(), x.tolist()))


# -- module-level operations ---------------------------------------------------------


def build_base_case(grid: Grid, bigm: BigMConfig | None = None,
                    backend: ScipyHighsBackend | None = None,
                    base_thermal: str = ENFORCE) -> OtsdModel:
    """Base-case block: switching binaries, DC flow, limits, connectivity flows."""
    return OtsdModel(grid, bigm or BigMConfig(),
                     backend or ScipyHighsBackend(), base_thermal=base_thermal)


def solve_extensive(grid: Grid, contingencies: ContingencySet,
                    backend_factory=None,
                    time_limit: float | None = None) -> SolveResult:
    """The full extensive program: every contingency block, hard limits,
    probability-weighted loss-of-load objective, lazy cutsets to fixpoint.

    The all-closed grid is screened first. The screen's objective is the
    structural risk, and it bounds the program's optimum from below: at a
    cutset fixpoint the program's energization is graph connectivity. In
    each contingency block the coupling rows hold pi equal across every
    closed, live branch, so pi is constant on each closed component and is 1
    on the reference's; the cutsets hold pi at 0 on every bus cut off from
    the reference. A block's loss of load is thus the load outside the
    reference's component of the plan's closed, live graph, and opening a
    branch only shrinks that component after any trip. So when the screen is
    clean, the all-closed plan is feasible and meets the bound: it is
    returned as OPTIMAL, and no program is built. (The verdict is the
    engine's: it prices a trip that leaves the reference's area with load
    and no generation as the loss of all load, a state the program has no
    solution for.)

    Otherwise the program is solved and its plan re-screened on the same
    analyzer, which recomputes the objective free of the solver's float
    dust; a plan the screen finds violating raises ``InsecurePlan``. Every
    result carries the structural risk as ``bound``.
    """
    start = time.monotonic()
    analyzer = SecurityAnalyzer(grid, contingencies)
    all_closed = analyzer.analyze(SwitchConfig.all_closed())
    bound = all_closed.total_objective

    def result(status: SolveStatus, config: SwitchConfig | None = None,
               report: SecurityReport | None = None) -> SolveResult:
        res = SolveResult(status=status, config=config, bound=bound,
                          timings_ms={"solve": (time.monotonic() - start) * 1000.0})
        if report is not None:
            res.objective = report.total_objective
            res.openings = sorted(config.open_branches)
            res.loss_of_load = dict(report.loss_of_load)
        return res

    if all_closed.clean:
        return result(SolveStatus.OPTIMAL, SwitchConfig.all_closed(), all_closed)

    factory = backend_factory or ScipyHighsBackend
    model = build_base_case(grid, backend=factory())
    for c in contingencies:
        model.add_contingency_block(c, ENFORCE)
    model.set_loss_objective()
    status = model.solve_with_separation(time_limit)
    if status is Status.INFEASIBLE:
        return result(SolveStatus.INFEASIBLE)
    if not status.has_solution:
        return result(SolveStatus.TIMEOUT)

    config = model.config_from_solution()
    report = analyzer.analyze(config)
    if not report.clean:
        raise InsecurePlan(f"plan opening {sorted(config.open_branches)} violates "
                           f"{len(report.violating_contingencies)} cases in the screen")
    return result(SolveStatus.OPTIMAL if status is Status.OPTIMAL else SolveStatus.FEASIBLE,
                  config, report)


@dataclass(frozen=True)
class FixedContingencyState:
    flows: Mapping[int, float]  # by branch id
    pi: Mapping[int, float]  # by bus id
    sigma: float
    loss_of_load: float
    feasible: bool = True


@dataclass
class FixedConfigResult:
    base_flows: Mapping[int, float]
    states: dict[int, FixedContingencyState]


def fixed_config_flows(grid: Grid, config: SwitchConfig, contingencies: ContingencySet,
                       backend_factory=None) -> FixedConfigResult:
    """Security-analysis program: thermal limits omitted, binaries fixed.

    One program per configuration: the base block plus one movable
    contingency block, moved from trip to trip by ``OtsdModel.move_trip``.
    A trip that strands a bus is solved with cutset separation to the
    fixpoint, so the energization values match graph connectivity exactly;
    one that leaves every bus connected is solved once, since separation
    only cuts off buses graph-disconnected from the reference. One labelling
    of every trip's closed graph tells the two apart. With every binary
    fixed the program is an LP, which the backend re-solves from the last
    basis for each contingency. The state-containing bounds
    of ``security_program_bounds`` are used, never the optimization
    defaults: an oracle must not clip feasible states. Flows, energization
    and sigma are read off the model's column records, flows and
    energization as read-only dicts by branch or bus id.
    """
    factory = backend_factory or ScipyHighsBackend
    bigm = security_program_bounds(grid)
    model = build_base_case(grid, bigm, factory(), base_thermal=OMIT)
    model.fix_config(config)
    base_flows: Mapping[int, float] | None = None
    states: dict[int, FixedContingencyState] = {}
    opened = np.isin(grid.branch_id, list(config.open_branches))
    off = np.array([opened | ~model._live(c) for c in contingencies], dtype=bool)
    labels = graph_ops.component_labels(grid, ~off.reshape(-1, opened.size))
    strands = (labels != labels[:, [grid.ref_idx]]).any(axis=1)
    for c, separate in zip(contingencies, strands):
        if model.contingencies:
            model.move_trip(c)
        else:
            model.add_contingency_block(c, OMIT, movable=True)
            model.set_loss_objective()
        status = model.solve_with_separation() if separate else model.backend.solve()
        if not status.has_solution:
            states[c.id] = FixedContingencyState(flows={}, pi={}, sigma=0.0,
                                                 loss_of_load=math.nan, feasible=False)
            continue
        if base_flows is None:
            base_flows = model.base_flow_values()
        states[c.id] = FixedContingencyState(
            flows=model.flow_values(c.id), pi=model.pi_values(c.id),
            sigma=model.sigma_value(c.id), loss_of_load=model.ll_value(c.id))
    if base_flows is None:
        model = build_base_case(grid, bigm, factory(), base_thermal=OMIT)
        model.fix_config(config)
        model.backend.set_objective({}, "min")
        status = model.backend.solve()
        if not status.has_solution:
            raise RuntimeError(f"base power flow infeasible for config {config}")
        base_flows = model.base_flow_values()
    return FixedConfigResult(base_flows=base_flows, states=states)


@dataclass
class ReduceViolationsResult:
    config: SwitchConfig | None
    residual: set[int | None]  # case ids (BASE_CASE for the base pseudo-case)
    overloads: dict[int | None, dict[int, float]]
    objective: float | None
    status: Status


def reduce_violations(grid: Grid, working: list[Contingency], switchable,
                      backend_factory=None, time_limit: float | None = None,
                      tolerance: float = 1e-6) -> ReduceViolationsResult:
    """Minimize total thermal overload over the working cases.

    The base case rides along as a permanent pseudo-case with its own slacks.
    Branches outside ``switchable`` are fixed closed (their own tripping case
    excepted, which the trip mask already handles).
    """
    factory = backend_factory or ScipyHighsBackend
    model = build_base_case(grid, backend=factory(), base_thermal=RELAX)
    for c in working:
        model.add_contingency_block(c, RELAX)
    model.force_closed_outside(switchable)
    model.set_overload_objective()
    status = model.solve_with_separation(time_limit)
    if not status.has_solution:
        return ReduceViolationsResult(config=None, residual=set(), overloads={},
                                      objective=None, status=status)

    overloads: dict[int | None, dict[int, float]] = {}
    residual: set[int | None] = set()
    for case in model.blocks:
        vals = {eid: v for eid, v in model.overload_values(case).items()
                if v > tolerance}
        if vals:
            overloads[case] = vals
            residual.add(case)
    return ReduceViolationsResult(
        config=model.config_from_solution(), residual=residual, overloads=overloads,
        objective=model.backend.objective_value, status=status)


def remove_unnecessary_openings(grid: Grid, vfsol: SwitchConfig,
                                working: list[Contingency], backend_factory=None,
                                time_limit: float | None = None) -> SwitchConfig:
    """Re-close as many branches of ``vfsol`` as the working cases allow.

    The paper's MILP formulation of the removal step. Only re-closing is
    permitted, so the returned opening set is a subset of the input one;
    with ``vfsol`` feasible on the working cases the program cannot be
    infeasible. The heuristic takes the step by screening instead
    (``heuristic.fewest_openings``); this program is its cross-check.
    """
    factory = backend_factory or ScipyHighsBackend
    model = build_base_case(grid, backend=factory(), base_thermal=ENFORCE)
    for c in working:
        model.add_contingency_block(c, ENFORCE)
    model.force_closed_outside(vfsol.open_branches)
    model.set_opening_objective()
    status = model.solve_with_separation(time_limit)
    if not status.has_solution:
        # the input configuration is itself feasible; fall back to it
        return vfsol
    return model.config_from_solution()
