"""Linear-algebra security analysis: DC power flow, PTDF, rebalancing,
violation detection, and the probability-weighted loss-of-load objective.

The all-closed grid is factorized once per analyzer. A base topology is the
all-closed grid with its open branches out, so its PTDF is a generalized
outage-distribution (LODF) update of the all-closed PTDF: one k x k solve
for k open branches. Every single-branch trip is one product on the PTDF of
the base topology. A trip that keeps the grid whole is an LODF update of
the base flows. A bridge trip strands the island behind the bridge; after
proportional rebalancing that island injects nothing, so neither it nor the
bridge carries flow, and the post-trip flows are exactly the base PTDF times
the rebalanced injections. The island is read off the bridge's PTDF row,
which is +-1 behind the bridge and 0 on the reference side. A trip of more
than one closed branch takes the general path: label the post-trip
components, rebalance, then solve the DC power flow of the post-trip
topology. The structural risk is the screen of the all-closed grid.

The same updates, batched over many plans and a few single-branch trips,
filter candidate plans (``SecurityAnalyzer.may_hold``) before any is screened.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import graph_ops
from .errors import DisconnectedCase, SingularSystem, UnbalanceableIsland
from .grid import Contingency, ContingencySet, Grid, SwitchConfig
from .graph_ops import EnergizedSet

DEFAULT_TOLERANCE = 1e-6

# key used for the base (no-contingency) pseudo-case in reports
BASE_CASE = None

# overload beyond the tolerance that ``SecurityAnalyzer.may_hold`` needs to
# reject a plan: orders of magnitude above the float dust between its flows
# and the screen's
_MARGIN = 1e-7


@dataclass(frozen=True)
class FlowState:
    angles: dict[int, float]  # bus id -> radians; de-energized buses omitted
    flows: dict[int, float]  # branch id -> p.u.; zero on open branches


@dataclass(frozen=True)
class RebalanceResult:
    sigma: float
    pg: dict[int, float]
    pd: dict[int, float]
    loss_of_load: float


# the de-energized set of every case that strands nothing
_NONE: frozenset[int] = frozenset()


class _Overloads(Mapping):
    """Read-only dict, branch id -> overload, of one case of a report: a
    slice of the two arrays that all cases of the report share."""

    __slots__ = ("_ids", "_values", "_start", "_stop")

    def __init__(self, ids: np.ndarray, values: np.ndarray, start: int, stop: int):
        self._ids, self._values, self._start, self._stop = ids, values, start, stop

    def __getitem__(self, key: int) -> float:
        at = np.flatnonzero(self._ids[self._start:self._stop] == key)
        if not at.size:
            raise KeyError(key)
        return float(self._values[self._start + at[0]])

    def __iter__(self):
        return iter(self._ids[self._start:self._stop].tolist())

    def __len__(self) -> int:
        return self._stop - self._start

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True, slots=True)
class ViolationDetail:
    violated_branches: Mapping[int, float]  # branch id -> overload beyond limit, p.u.
    loss_of_load: float
    de_energized: frozenset[int]


@dataclass(slots=True)
class SecurityReport:
    violating_contingencies: dict[int | None, ViolationDetail]
    total_objective: float
    loss_of_load: dict[int, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violating_contingencies


def _injection_vector(grid: Grid, injections) -> np.ndarray:
    if isinstance(injections, dict):
        p = np.zeros(grid.n_buses)
        for bus, val in injections.items():
            p[grid.bus_index(bus)] = val
        return p
    p = np.asarray(injections, dtype=float)
    if p.shape != (grid.n_buses,):
        raise ValueError(f"injection vector must have shape ({grid.n_buses},)")
    return p


def _laplacian(grid: Grid, ks: np.ndarray) -> np.ndarray:
    """Dense bus susceptance matrix of the branches with indexes ``ks``."""
    o, d, b = grid.origin_idx[ks], grid.dest_idx[ks], grid.susceptance[ks]
    lap = np.zeros((grid.n_buses, grid.n_buses))
    np.add.at(lap, (o, o), b)
    np.add.at(lap, (d, d), b)
    np.add.at(lap, (o, d), -b)
    np.add.at(lap, (d, o), -b)
    return lap


def _ptdf(grid: Grid, ks: np.ndarray) -> np.ndarray:
    """Dense branch x bus PTDF of the connected subgraph of branches ``ks``.

    The reference column is zero, and so are the rows of the other branches.
    """
    keep = np.delete(np.arange(grid.n_buses), grid.ref_idx)
    try:
        chol = scipy.linalg.cho_factor(_laplacian(grid, ks)[np.ix_(keep, keep)])
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    cols = np.arange(len(ks))
    incidence = np.zeros((grid.n_buses, len(ks)))  # susceptance-weighted
    incidence[grid.origin_idx[ks], cols] = grid.susceptance[ks]
    incidence[grid.dest_idx[ks], cols] = -grid.susceptance[ks]
    ptdf = np.zeros((grid.n_branches, grid.n_buses))
    ptdf[np.ix_(ks, keep)] = scipy.linalg.cho_solve(chol, incidence[keep]).T
    return ptdf


def _power_flow(grid: Grid, ks: np.ndarray, labels: np.ndarray,
                p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``dc_power_flow`` by index: bus angles and branch flows on the closed
    branches ``ks``, whose bus components are ``labels``."""
    n = grid.n_buses
    n_comp = int(labels.max()) + 1
    imbalance = np.bincount(labels, weights=p, minlength=n_comp)
    bad = np.flatnonzero(np.abs(imbalance) > 1e-9 * max(1.0, float(np.abs(p).sum())))
    if bad.size:
        buses = grid.bus_id[labels == bad[0]].tolist()
        raise ValueError(f"injections unbalanced by {imbalance[bad[0]]:.3e} "
                         f"in the component of buses {buses}")
    _, pins = np.unique(labels, return_index=True)
    pins[labels[grid.ref_idx]] = grid.ref_idx
    keep = np.setdiff1d(np.arange(n), pins)
    theta = np.zeros(n)
    if keep.size:
        try:
            theta[keep] = scipy.linalg.solve(
                _laplacian(grid, ks)[np.ix_(keep, keep)], -p[keep], assume_a="pos")
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise SingularSystem(str(exc)) from None

    f = np.zeros(grid.n_branches)
    f[ks] = grid.susceptance[ks] * (theta[grid.dest_idx[ks]] - theta[grid.origin_idx[ks]])
    return theta, f


def dc_power_flow(grid: Grid, closed_branches, injections) -> FlowState:
    """Solve the DC power flow on the subgraph of closed branches.

    Each connected component has one pinned angle: the reference bus in its
    own component, the lowest-index bus elsewhere. Injections must balance
    within every component.
    """
    p = _injection_vector(grid, injections)
    ks = grid.branch_indexes(closed_branches)
    theta, f = _power_flow(grid, ks, graph_ops.component_labels(grid, ks), p)
    flows = {e.id: float(f[k]) for k, e in enumerate(grid.branches)}
    angles = {b.id: float(theta[i]) for i, b in enumerate(grid.buses)}
    return FlowState(angles=angles, flows=flows)


def ptdf_matrix(grid: Grid, closed_branches) -> np.ndarray:
    """PTDF of the closed subgraph; requires that subgraph to be connected."""
    ks = grid.branch_indexes(closed_branches)
    if graph_ops.component_labels(grid, ks).any():  # labels count from 0 per component
        raise DisconnectedCase("closed subgraph is not connected")
    return _ptdf(grid, ks)


def _rescale(grid: Grid, on: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proportional rebalance of each energized-bus mask (bus x case) in ``on``.

    Returns per case the generation factor sigma, the loss of load, and
    whether the energized area can be balanced at all (it has generation,
    or it has no load).
    """
    load_on = grid.pd @ on
    gen_on = grid.pg @ on
    sigma = np.divide(load_on, gen_on, out=np.zeros_like(load_on), where=gen_on > 0.0)
    loss = grid.pd.sum() - load_on
    loss[np.abs(loss) < 1e-12] = 0.0  # subtraction dust when only zero-load buses are lost
    return sigma, loss, (gen_on > 0.0) | (load_on <= 0.0)


def rebalance(grid: Grid, energized: EnergizedSet) -> RebalanceResult:
    """Proportional generation rescale balancing the energized area."""
    on = energized.energized
    if grid.reference_bus not in on:
        raise ValueError("energized set must contain the reference bus")
    mask = np.array([b.id in on for b in grid.buses])
    sigma, loss, balanced = _rescale(grid, mask[:, None])
    if not balanced[0]:
        raise UnbalanceableIsland(float(grid.pd[mask].sum()), buses=on)
    s = float(sigma[0])
    pg = {b.id: (s * b.pg_ref if b.id in on else 0.0) for b in grid.buses}
    pd = {b.id: (b.pd_ref if b.id in on else 0.0) for b in grid.buses}
    return RebalanceResult(sigma=s, pg=pg, pd=pd, loss_of_load=float(loss[0]))


@dataclass(frozen=True, slots=True)
class ContingencyState:
    """Post-contingency operating point used by the analyzer and oracles."""

    sigma: float
    loss_of_load: float
    flows: np.ndarray  # by branch index, zero on open/tripped branches
    de_energized: frozenset[int]
    unbalanceable: bool = False


@dataclass(frozen=True)
class _Topology:
    """A connected base topology and what N-1 screening needs of it."""

    opened: frozenset[int]
    closed: frozenset[int]
    live: np.ndarray  # by branch index: closed
    ptdf: np.ndarray
    flows: np.ndarray  # base flows by branch index
    bridge: np.ndarray  # by branch index: its trip strands an island


@dataclass(frozen=True)
class _Trips:
    """Flows after each of a batch of single-branch trips, one column each,
    and the rebalance of the trips in it that strand an island."""

    post: np.ndarray  # branch x trip
    bridge: np.ndarray  # by trip
    on: np.ndarray  # bus x bridge trip: energized after it
    sigma: np.ndarray  # by bridge trip; 0 where unbalanceable
    loss: np.ndarray  # by bridge trip; the whole load where unbalanceable
    balanced: np.ndarray


class SecurityAnalyzer:
    """Reusable N-1 screening engine for one grid and contingency set.

    Factorizes the all-closed grid once, at its first screen. A
    configuration is the all-closed grid with its open branches tripped, so
    its PTDF is a rank-k update of the all-closed one (generalized LODF):
    with ``M0`` the branch-to-branch outage matrix of the all-closed grid
    and ``S`` the open branches, ``PTDF0 + M0[:, S] (I - M0[S, S])^-1
    PTDF0[S, :]``, with the rows of ``S`` zero. ``M0`` is built at the first
    configuration with an opening. The PTDF, base flows and bridges of the
    last configuration are kept, so an analysis and the per-contingency
    queries that follow on the same configuration build them once.
    """

    def __init__(self, grid: Grid, contingencies: ContingencySet,
                 tolerance: float = DEFAULT_TOLERANCE):
        self.grid = grid
        self.contingencies = contingencies
        self.tolerance = tolerance
        self._all = frozenset(grid.branch_ids())
        tripped = [c.tripped & self._all for c in contingencies.cases]
        # by case: the index of its one tripped branch, or -1
        self._trip = np.array([grid.branch_index(next(iter(t))) if len(t) == 1 else -1
                               for t in tripped], dtype=int)
        # the cases that trip more than one branch
        self._several = [j for j, t in enumerate(tripped) if len(t) > 1]
        self._last: _Topology | None = None

    def base_injections(self) -> np.ndarray:
        return self.grid.pg - self.grid.pd

    @functools.cached_property
    def _closed(self) -> _Topology:
        """The all-closed grid, whose graph is connected (a Grid invariant)."""
        n = self.grid.n_branches
        return self._topology_of(frozenset(), np.ones(n, dtype=bool),
                                 _ptdf(self.grid, np.arange(n)))

    @functools.cached_property
    def _m0(self) -> np.ndarray:
        """Outage matrix of the all-closed grid: column k holds the flows of
        a unit injected at branch k's origin and withdrawn at its destination."""
        ptdf = self._closed.ptdf
        return ptdf[:, self.grid.origin_idx] - ptdf[:, self.grid.dest_idx]

    def _topology_of(self, opened: frozenset[int], live: np.ndarray,
                     ptdf: np.ndarray) -> _Topology:
        grid = self.grid
        # a closed branch is a bridge exactly when its self-sensitivity is 1
        # (the LODF denominator vanishes); open branches have zero PTDF rows
        arange = np.arange(grid.n_branches)
        self_sens = ptdf[arange, grid.origin_idx] - ptdf[arange, grid.dest_idx]
        return _Topology(opened=opened, closed=self._all - opened, live=live, ptdf=ptdf,
                         flows=ptdf @ self.base_injections(), bridge=1.0 - self_sens < 1e-9)

    def _topology(self, config: SwitchConfig) -> _Topology:
        opened = config.open_branches & self._all
        if not opened:
            return self._closed
        if self._last is not None and self._last.opened == opened:
            return self._last
        grid = self.grid
        s = grid.branch_indexes(opened)
        live = np.ones(grid.n_branches, dtype=bool)
        live[s] = False
        labels = graph_ops.component_labels(grid, live)
        off = labels != labels[grid.ref_idx]
        if off.any():
            raise DisconnectedCase(
                f"base configuration disconnects buses {sorted(grid.bus_id[off].tolist())}")
        ptdf0, m0s = self._closed.ptdf, self._m0[:, s]
        ptdf = ptdf0 + m0s @ np.linalg.solve(np.eye(len(s)) - m0s[s], ptdf0[s])
        ptdf[s] = 0.0
        self._last = self._topology_of(opened, live, ptdf)
        return self._last

    def _single_trips(self, base: _Topology, ks: np.ndarray) -> _Trips:
        """Flows after tripping, on its own, each closed branch of index ``ks[j]``."""
        grid, ptdf, f = self.grid, base.ptdf, base.flows
        post = np.empty((grid.n_branches, len(ks)))
        bridge = base.bridge[ks]

        # the grid stays whole: outage-distribution update of the base flows
        k = ks[~bridge]
        m = ptdf[:, grid.origin_idx[k]] - ptdf[:, grid.dest_idx[k]]
        post[:, ~bridge] = f[:, None] + m * (f[k] / (1.0 - m[k, np.arange(len(k))]))

        # the buses behind a bridge, where its PTDF row is +-1, black out;
        # rebalanced, they inject nothing, so the flows are a PTDF product
        on = np.abs(ptdf[ks[bridge]].T) < 0.5  # bus x bridge trip
        sigma, loss, balanced = _rescale(grid, on)
        p = np.where(on & balanced, sigma * grid.pg[:, None] - grid.pd[:, None], 0.0)
        post[:, bridge] = ptdf @ p
        post[ks, np.arange(len(ks))] = 0.0
        loss[~balanced] = float(grid.pd.sum())
        return _Trips(post=post, bridge=bridge, on=on, sigma=np.where(balanced, sigma, 0.0),
                      loss=loss, balanced=balanced)

    def _de_energized(self, on: np.ndarray) -> frozenset[int]:
        if on.all():
            return _NONE
        return frozenset(self.grid.bus_id[~on].tolist())

    def _general_trip(self, base: _Topology, c: Contingency) -> ContingencyState:
        """Trip of several closed branches: rebalance, then a DC power flow."""
        grid = self.grid
        ks = grid.branch_indexes(base.closed - c.tripped)
        labels = graph_ops.component_labels(grid, ks)
        on = labels == labels[grid.ref_idx]
        de_energized = self._de_energized(on)
        sigma, loss, balanced = _rescale(grid, on[:, None])
        if not balanced[0]:
            # main component cannot be balanced: the whole load is lost
            return ContingencyState(sigma=0.0, loss_of_load=float(grid.pd.sum()),
                                    flows=np.zeros(grid.n_branches),
                                    de_energized=de_energized, unbalanceable=True)
        p = np.where(on, sigma[0] * grid.pg - grid.pd, 0.0)
        _, flows = _power_flow(grid, ks, labels, p)
        return ContingencyState(sigma=float(sigma[0]), loss_of_load=float(loss[0]),
                                flows=flows, de_energized=de_energized)

    def _state(self, base: _Topology, contingency: Contingency | None) -> ContingencyState:
        live = contingency.tripped & base.closed if contingency is not None else ()
        if not live:
            # the base case, or a trip of branches that are open already
            return ContingencyState(sigma=1.0, loss_of_load=0.0, flows=base.flows,
                                    de_energized=_NONE)
        if len(live) > 1:
            return self._general_trip(base, contingency)
        trips = self._single_trips(base, self.grid.branch_indexes(live))
        if not trips.bridge[0]:
            return ContingencyState(sigma=1.0, loss_of_load=0.0, flows=trips.post[:, 0],
                                    de_energized=_NONE)
        return ContingencyState(
            sigma=float(trips.sigma[0]), loss_of_load=float(trips.loss[0]),
            flows=trips.post[:, 0], de_energized=self._de_energized(trips.on[:, 0]),
            unbalanceable=not trips.balanced[0])

    def _plan_flows(self, plans: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flows of each plan (a row of branch indexes it opens from the
        all-closed grid) in its base case and after each single-branch trip
        ``ks[j]``, plan x branch x (1 + trip), base first; and whether each
        plan keeps the grid whole, without which its flows mean nothing.

        Each plan is the generalized LODF update of the all-closed grid, one
        s x s system for s openings, and each trip is then taken as
        ``analyze`` takes it: an LODF update of the plan's base flows when
        the grid stays whole, the plan's PTDF times the rebalanced
        injections when the trip is a bridge, the base flows when the
        branch is already open.
        """
        grid, closed = self.grid, self._closed
        n_plans, s = plans.shape
        cols, at = np.arange(len(ks)), np.arange(n_plans)[:, None]
        m0, ptdf0, f0 = self._m0, closed.ptdf, closed.flows

        # det(I - M0[S, S]) is the share of the all-closed grid's weighted
        # spanning trees that survive the openings S: zero when they split it
        a = np.eye(s) - m0[plans[:, :, None], plans[:, None, :]]
        whole = np.linalg.det(a) >= 1e-9
        a[~whole] = np.eye(s)
        inv = np.linalg.inv(a)
        m0s = m0[:, plans].transpose(1, 0, 2)  # plan x branch x opening
        # each plan's base flows and the outage columns of the tripped branches
        y = m0s @ (inv @ np.concatenate([f0[plans][:, :, None], m0[plans[:, :, None], ks]], 2))
        y += np.column_stack([f0, m0[:, ks]])
        y[at, plans] = 0.0
        f, m = y[:, :, 0], y[:, :, 1:]

        flows = np.empty((n_plans, grid.n_branches, 1 + len(ks)))
        flows[:, :, 0] = f
        self_sens = m[:, ks, cols]
        opened = (plans[:, :, None] == ks).any(axis=1)  # plan x trip
        bridge = (1.0 - self_sens < 1e-9) & ~opened
        lodf = ~bridge & ~opened
        ratio = np.where(lodf, f[:, ks], 0.0) / np.where(lodf, 1.0 - self_sens, 1.0)
        flows[:, :, 1:] = f[:, :, None] + m * ratio[:, None, :]
        flows[:, ks, cols + 1] = 0.0

        # a bridge's PTDF row on the plan is +-1 behind it: that island blacks
        # out, and the plan's PTDF times the rebalanced injections is the flow
        p, j = np.nonzero(bridge)
        if p.size:
            k, opens, rows = ks[j], plans[p], np.arange(len(p))[:, None]
            row = ptdf0[k] + np.einsum("bs,bst,btn->bn", m0[k[:, None], opens], inv[p],
                                       ptdf0[opens])
            on = np.abs(row) < 0.5
            sigma, _, balanced = _rescale(grid, on.T)
            q = np.where(on & balanced[:, None], sigma[:, None] * grid.pg - grid.pd, 0.0) @ ptdf0.T
            post = q + np.einsum("bns,bst,bt->bn", m0s[p], inv[p], q[rows, opens])
            post[rows, opens] = 0.0
            post[rows[:, 0], k] = 0.0
            flows[p, :, j + 1] = post
        return whole, flows

    def may_hold(self, plans: np.ndarray, cases: Sequence[Contingency]) -> np.ndarray:
        """Whether each plan may keep its base case and ``cases`` within limits.

        ``plans`` holds P rows of s branch indexes, each row the branches
        one plan opens from the all-closed grid. A plan is rejected only
        where a flow exceeds its limit by more than the tolerance plus
        ``_MARGIN``, so ``analyze`` would flag it too. A plan that splits
        the grid (its update is singular) is never rejected, and a case that
        trips several branches never rejects one: both are left to the exact
        path.
        """
        ks = np.array([self.grid.branch_index(e) for t in (c.tripped & self._all for c in cases)
                       if len(t) == 1 for e in t], dtype=int)
        whole, flows = self._plan_flows(np.asarray(plans, dtype=int), ks)
        over = np.abs(flows) - self.grid.limit[:, None] > self.tolerance + _MARGIN
        return ~whole | ~over.any(axis=(1, 2))

    def contingency_state(self, config: SwitchConfig,
                          contingency: Contingency | None) -> ContingencyState:
        """Operating point of a connected configuration after a contingency."""
        return self._state(self._topology(config), contingency)

    def analyze(self, config: SwitchConfig) -> SecurityReport:
        """Screen every contingency of a connected configuration.

        All single-branch trips are screened in one batch, and only the cases
        the report names (overloaded, or stranding load) are read out of it.
        """
        grid, cases = self.grid, self.contingencies.cases
        base = self._topology(config)
        trip = np.where(base.live[self._trip], self._trip, -1)  # -1 stays -1
        single = np.flatnonzero(trip >= 0)
        trips = self._single_trips(base, trip[single])
        states = [self._state(base, cases[j]) for j in self._several]

        # one column of flows per case kind: the base (also the state after
        # a trip of open branches), each single trip, each multi-branch trip
        over = np.abs(np.column_stack([base.flows, trips.post, *(s.flows for s in states)]))
        over -= grid.limit[:, None]
        col, row = np.nonzero((over > self.tolerance).T)
        stops = np.searchsorted(col, np.arange(over.shape[1]), side="right")
        ids, values = grid.branch_id[row], over[row, col]
        column = np.zeros(len(cases), dtype=int)
        column[single] = np.arange(1, len(single) + 1)
        column[self._several] = np.arange(len(single) + 1, over.shape[1])
        hits = np.diff(stops, prepend=0)

        bridge = single[trips.bridge]
        loss_of = np.zeros(len(cases))
        loss_of[bridge] = trips.loss
        loss_of[self._several] = [s.loss_of_load for s in states]
        bridge_at = dict(zip(bridge.tolist(), range(len(bridge))))
        state_at = dict(zip(self._several, states))

        def overloads(c: int) -> _Overloads:
            return _Overloads(ids, values, int(stops[c] - hits[c]), int(stops[c]))

        def de_energized(j: int) -> frozenset[int]:
            if j in state_at:
                return state_at[j].de_energized
            return self._de_energized(trips.on[:, bridge_at[j]]) if j in bridge_at else _NONE

        violating: dict[int | None, ViolationDetail] = {}
        base_over = overloads(0)
        if hits[0] and self.contingencies.include_base_case:
            violating[BASE_CASE] = ViolationDetail(
                violated_branches=base_over, loss_of_load=0.0, de_energized=_NONE)
        loss: dict[int, float] = {}
        objective = 0.0
        for j in np.flatnonzero((hits[column] > 0) | (loss_of > 1e-12)).tolist():
            c, ll = cases[j], float(loss_of[j]) if loss_of[j] else 0.0  # one shared zero
            if ll > 1e-12:
                loss[c.id] = ll
                objective += c.probability * ll
            if hits[column[j]]:
                violating[c.id] = ViolationDetail(
                    violated_branches=overloads(column[j]) if column[j] else base_over,
                    loss_of_load=ll, de_energized=de_energized(j))

        return SecurityReport(violating_contingencies=violating,
                              total_objective=objective, loss_of_load=loss)


def security_analysis(grid: Grid, config: SwitchConfig, contingencies: ContingencySet,
                      tolerance: float = DEFAULT_TOLERANCE) -> SecurityReport:
    """One-shot security analysis; a SecurityAnalyzer reuses its grid and contingencies."""
    return SecurityAnalyzer(grid, contingencies, tolerance).analyze(config)


def structural_risk(grid: Grid, contingencies: ContingencySet) -> float:
    """Probability-weighted loss of load with everything closed and limits ignored.

    This is the objective of the screen of the all-closed grid, which counts
    loss of load only. Only trips that split the all-closed graph contribute,
    and openings only shrink the energized area after any trip, so this is a
    lower bound on the objective of any feasible configuration.
    """
    report = SecurityAnalyzer(grid, contingencies).analyze(SwitchConfig.all_closed())
    return report.total_objective
