"""Linear-algebra security analysis: DC power flow, PTDF, rebalancing,
violation detection, and the probability-weighted loss-of-load objective.

Every single-branch trip is one product on the PTDF of the base topology. A
trip that keeps the grid whole is an outage-distribution (LODF) update of
the base flows. A bridge trip strands the island behind the bridge; after
proportional rebalancing that island injects nothing, so neither it nor the
bridge carries flow, and the post-trip flows are exactly the base PTDF times
the rebalanced injections. The island is read off the bridge's PTDF row,
which is +-1 behind the bridge and 0 on the reference side. A trip of more
than one closed branch takes the general path: label the post-trip
components, rebalance, then solve the DC power flow of the post-trip
topology. The structural risk is the screen of the all-closed grid.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ViolationDetail:
    violated_branches: dict[int, float]  # branch id -> overload beyond limit, p.u.
    loss_of_load: float
    de_energized: frozenset[int]


@dataclass
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


@dataclass(frozen=True)
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

    closed: frozenset[int]
    ptdf: np.ndarray
    flows: np.ndarray  # base flows by branch index
    bridge: np.ndarray  # by branch index: its trip strands an island


class SecurityAnalyzer:
    """Reusable N-1 screening engine for one grid and contingency set.

    Keeps the PTDF, base flows and bridges of the last base topology it was
    asked about, so an analysis and the per-contingency queries that follow
    on the same configuration build them once.
    """

    def __init__(self, grid: Grid, contingencies: ContingencySet,
                 tolerance: float = DEFAULT_TOLERANCE):
        self.grid = grid
        self.contingencies = contingencies
        self.tolerance = tolerance
        self._all = frozenset(grid.branch_ids())
        self._bus_ids = grid.bus_ids()
        self._last: _Topology | None = None

    def base_injections(self) -> np.ndarray:
        return self.grid.pg - self.grid.pd

    def _topology(self, config: SwitchConfig) -> _Topology:
        closed = self._all - config.open_branches
        if self._last is not None and self._last.closed == closed:
            return self._last
        grid = self.grid
        ks = grid.branch_indexes(closed)
        labels = graph_ops.component_labels(grid, ks)
        off = labels != labels[grid.ref_idx]
        if off.any():
            raise DisconnectedCase(
                f"base configuration disconnects buses {sorted(grid.bus_id[off].tolist())}")
        ptdf = _ptdf(grid, ks)
        # a closed branch is a bridge exactly when its self-sensitivity is 1
        # (the LODF denominator vanishes); open branches have zero PTDF rows
        arange = np.arange(grid.n_branches)
        self_sens = ptdf[arange, grid.origin_idx] - ptdf[arange, grid.dest_idx]
        bridge = 1.0 - self_sens < 1e-9
        self._last = _Topology(closed=closed, ptdf=ptdf,
                               flows=ptdf @ self.base_injections(), bridge=bridge)
        return self._last

    def _single_trips(self, base: _Topology,
                      ks: np.ndarray) -> tuple[np.ndarray, list[ContingencyState]]:
        """States after tripping, on its own, each closed branch of index ``ks[j]``.

        Returns the post-trip flows, one column per trip, and the states,
        whose flows are those columns.
        """
        grid, ptdf, f = self.grid, base.ptdf, base.flows
        cols = np.arange(len(ks))
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
        post[ks, cols] = 0.0

        states = [ContingencyState(sigma=1.0, loss_of_load=0.0, flows=post[:, j],
                                   de_energized=frozenset()) for j in cols]
        total_load = float(grid.pd.sum())
        for i, j in enumerate(cols[bridge]):
            states[j] = ContingencyState(
                sigma=float(sigma[i]) if balanced[i] else 0.0,
                loss_of_load=float(loss[i]) if balanced[i] else total_load,
                flows=post[:, j],
                de_energized=frozenset(self._bus_ids[b] for b in np.flatnonzero(~on[:, i])),
                unbalanceable=not balanced[i])
        return post, states

    def _general_trip(self, base: _Topology, c: Contingency) -> ContingencyState:
        """Trip of several closed branches: rebalance, then a DC power flow."""
        grid = self.grid
        ks = grid.branch_indexes(base.closed - c.tripped)
        labels = graph_ops.component_labels(grid, ks)
        on = labels == labels[grid.ref_idx]
        de_energized = frozenset(grid.bus_id[~on].tolist())
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
                                    de_energized=frozenset())
        if len(live) == 1:
            ks = np.array([self.grid.branch_index(e) for e in live])
            return self._single_trips(base, ks)[1][0]
        return self._general_trip(base, contingency)

    def contingency_state(self, config: SwitchConfig,
                          contingency: Contingency | None) -> ContingencyState:
        """Operating point of a connected configuration after a contingency."""
        return self._state(self._topology(config), contingency)

    def analyze(self, config: SwitchConfig) -> SecurityReport:
        grid = self.grid
        base = self._topology(config)
        cases = self.contingencies.cases
        live = [c.tripped & base.closed for c in cases]
        single = [j for j, t in enumerate(live) if len(t) == 1]
        ks = np.array([grid.branch_index(next(iter(live[j]))) for j in single], dtype=int)
        post, trip_states = self._single_trips(base, ks)
        states = dict(zip(single, trip_states))
        # all single trips are screened at once; only flagged ones are read out
        flagged = {single[j] for j in np.flatnonzero(
            (np.abs(post) - grid.limit[:, None] > self.tolerance).any(axis=0))}

        violating: dict[int | None, ViolationDetail] = {}
        loss: dict[int, float] = {}

        def overloads(flows: np.ndarray) -> dict[int, float]:
            over = np.abs(flows) - grid.limit
            hits = np.flatnonzero(over > self.tolerance)
            return {grid.branches[k].id: float(over[k]) for k in hits}

        if self.contingencies.include_base_case:
            base_over = overloads(base.flows)
            if base_over:
                violating[BASE_CASE] = ViolationDetail(
                    violated_branches=base_over, loss_of_load=0.0,
                    de_energized=frozenset())

        objective = 0.0
        for j, c in enumerate(cases):
            if j in states:
                state, screen = states[j], j in flagged
            else:
                state, screen = self._state(base, c), True
            if state.loss_of_load > 1e-12:
                loss[c.id] = state.loss_of_load
                objective += c.probability * state.loss_of_load
            over = overloads(state.flows) if screen else None
            if over:
                violating[c.id] = ViolationDetail(
                    violated_branches=over, loss_of_load=state.loss_of_load,
                    de_energized=state.de_energized)

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
