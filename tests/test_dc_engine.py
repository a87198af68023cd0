import itertools
import math
import random

import numpy as np
import pytest

from otsd import dc_engine, graph_ops, n_minus_1_contingencies, oracle
from otsd.dc_engine import (SecurityAnalyzer, ViolationDetail, dc_power_flow, ptdf_matrix,
                             rebalance, structural_risk)
from otsd.errors import DisconnectedCase, UnbalanceableIsland
from otsd.grid import Branch, Bus, Contingency, ContingencySet, Grid, SwitchConfig

from conftest import load_grid, random_connected_config, ring_grid, spanning_tree_config, toy_grid


def two_bus_grid():
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0)]
    branches = [Branch(1, 1, 2, 10.0, 2.0)]
    return Grid(buses, branches, reference_bus=1)


def test_two_bus_hand_solution():
    grid = two_bus_grid()
    state = dc_power_flow(grid, {1}, {1: 1.0, 2: -1.0})
    assert math.isclose(state.flows[1], 1.0, abs_tol=1e-12)
    assert math.isclose(state.angles[2] - state.angles[1], 0.1, abs_tol=1e-12)


def test_zero_injections_zero_state():
    grid = toy_grid()
    state = dc_power_flow(grid, grid.branch_ids(), {b.id: 0.0 for b in grid.buses})
    assert all(abs(f) < 1e-12 for f in state.flows.values())
    assert all(abs(a) < 1e-12 for a in state.angles.values())


def test_flows_satisfy_ohm_and_kcl(grid14):
    inj = grid14.pg - grid14.pd
    state = dc_power_flow(grid14, grid14.branch_ids(), inj)
    for e in grid14.branches:
        lhs = state.flows[e.id]
        rhs = e.susceptance * (state.angles[e.destination] - state.angles[e.origin])
        assert abs(lhs - rhs) < 1e-8
    for b in grid14.buses:
        inflow = sum(state.flows[e.id] for e in grid14.branches if e.destination == b.id)
        outflow = sum(state.flows[e.id] for e in grid14.branches if e.origin == b.id)
        assert abs((b.pg_ref - b.pd_ref) - (outflow - inflow)) < 1e-8


def test_unbalanced_injections_rejected():
    grid = two_bus_grid()
    with pytest.raises(ValueError):
        dc_power_flow(grid, {1}, {1: 1.0, 2: -0.5})


def test_per_component_solve():
    grid = toy_grid()
    # branch 4 open: component {4} must carry zero, main component balances
    state = dc_power_flow(grid, {1, 2, 3}, {1: 1.5, 2: -1.0, 3: -0.5, 4: 0.0})
    assert state.flows[4] == 0.0


def test_ptdf_reference_column_zero(grid14):
    ptdf = ptdf_matrix(grid14, grid14.branch_ids())
    ref_col = ptdf[:, grid14.bus_index(grid14.reference_bus)]
    assert np.allclose(ref_col, 0.0)


def test_ptdf_radial_two_bus():
    # branch oriented from the non-reference bus into the reference
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0)]
    branches = [Branch(1, 2, 1, 10.0, 2.0)]
    grid = Grid(buses, branches, reference_bus=1)
    ptdf = ptdf_matrix(grid, {1})
    assert math.isclose(ptdf[0, grid.bus_index(2)], 1.0, abs_tol=1e-12)


def test_ptdf_linearity_random_injections(grid57):
    rng = np.random.default_rng(42)
    ptdf = ptdf_matrix(grid57, grid57.branch_ids())
    for _ in range(10):
        p = rng.normal(size=grid57.n_buses)
        p -= p.mean()
        state = dc_power_flow(grid57, grid57.branch_ids(), p)
        flows = np.array([state.flows[e.id] for e in grid57.branches])
        assert np.allclose(ptdf @ p, flows, atol=1e-8)


def test_ptdf_requires_connected_subgraph():
    grid = toy_grid()
    with pytest.raises(DisconnectedCase):
        ptdf_matrix(grid, {1, 2, 3})  # bus 4 cut off


def test_rebalance_identity_when_all_energized(grid14):
    ens = graph_ops.energized_component(grid14, grid14.branch_ids())
    reb = rebalance(grid14, ens)
    assert math.isclose(reb.sigma, 1.0, abs_tol=1e-12)
    assert reb.loss_of_load == 0.0


def test_rebalance_load_only_island():
    grid = toy_grid()
    ens = graph_ops.energized_component(grid, {1, 2, 3})  # drop bus 4 (0.5 load)
    reb = rebalance(grid, ens)
    assert math.isclose(reb.loss_of_load, 0.5, abs_tol=1e-12)
    assert math.isclose(reb.sigma, 1.5 / 2.0, abs_tol=1e-12)


def test_rebalance_generator_only_island_scales_up():
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 2.0), Bus(3, 1.0, 0.0)]
    branches = [Branch(1, 1, 2, 10.0, 5.0), Branch(2, 2, 3, 10.0, 5.0)]
    grid = Grid(buses, branches, reference_bus=1)
    ens = graph_ops.energized_component(grid, {1})  # bus 3 (gen only) dropped
    reb = rebalance(grid, ens)
    assert reb.loss_of_load == 0.0
    assert math.isclose(reb.sigma, 2.0, abs_tol=1e-12)
    total_pg = sum(reb.pg.values())
    total_pd = sum(reb.pd.values())
    assert abs(total_pg - total_pd) < 1e-8


def test_rebalance_unbalanceable():
    buses = [Bus(1, 0.0, 1.0), Bus(2, 1.0, 0.0)]
    branches = [Branch(1, 1, 2, 10.0, 2.0)]
    grid = Grid(buses, branches, reference_bus=1)
    ens = graph_ops.energized_component(grid, set())  # gen bus stranded
    with pytest.raises(UnbalanceableIsland):
        rebalance(grid, ens)


def _naive_contingency_state(grid, config, c):
    """Independent recomputation: BFS split, arithmetic rebalance, direct solve."""
    closed = set(config.closed_set(grid, c))
    ens = graph_ops.energized_component(grid, closed)
    on = ens.energized
    load_on = sum(b.pd_ref for b in grid.buses if b.id in on)
    gen_on = sum(b.pg_ref for b in grid.buses if b.id in on)
    sigma = load_on / gen_on if gen_on > 0 else 0.0
    inj = {b.id: (sigma * b.pg_ref - b.pd_ref if b.id in on else 0.0)
           for b in grid.buses}
    state = dc_power_flow(grid, closed, inj)
    ll = sum(b.pd_ref for b in grid.buses) - load_on
    return state, sigma, ll, ens.de_energized


def test_fast_path_matches_naive_recompute(grid30):
    cons = n_minus_1_contingencies(grid30)
    analyzer = SecurityAnalyzer(grid30, cons)
    rng = random.Random(5)
    ids = list(grid30.branch_ids())
    from conftest import random_connected_config
    for _ in range(15):
        config = random_connected_config(grid30, rng)
        for c in cons:
            fast = analyzer.contingency_state(config, c)
            state, sigma, ll, _ = _naive_contingency_state(grid30, config, c)
            if fast.unbalanceable:
                continue
            assert abs(fast.sigma - sigma) < 1e-8
            assert abs(fast.loss_of_load - ll) < 1e-12
            for e in grid30.branches:
                k = grid30.branch_index(e.id)
                assert abs(fast.flows[k] - state.flows[e.id]) < 1e-8, (config, c.id, e.id)


def test_trip_of_open_branch_is_base_state(grid14):
    cons = n_minus_1_contingencies(grid14)
    analyzer = SecurityAnalyzer(grid14, cons)
    config = SwitchConfig.with_open([7])
    base = analyzer.contingency_state(config, None)
    trip_open = analyzer.contingency_state(config, cons.by_id(7))
    assert np.allclose(base.flows, trip_open.flows)
    assert trip_open.loss_of_load == 0.0


def test_security_analysis_disconnected_base_rejected():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    with pytest.raises(DisconnectedCase):
        dc_engine.security_analysis(grid, SwitchConfig.with_open([4]), cons)


def test_security_analysis_objective_is_probability_weighted():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    report = dc_engine.security_analysis(grid, SwitchConfig.all_closed(), cons)
    # only the bridge trip (branch 4) sheds load: 0.5 p.u. at probability 1
    assert math.isclose(report.total_objective, 0.5, abs_tol=1e-12)
    assert set(report.loss_of_load) == {4}


def test_base_case_flag_controls_base_screening():
    # overloaded single feeder: only the base pseudo-case can flag it
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0)]
    branches = [Branch(1, 1, 2, 10.0, 0.4), Branch(2, 1, 2, 10.0, 5.0)]
    grid = Grid(buses, branches, reference_bus=1)
    cons = n_minus_1_contingencies(grid)
    with_base = dc_engine.security_analysis(grid, SwitchConfig.all_closed(), cons)
    assert None in with_base.violating_contingencies
    without = ContingencySet(cases=cons.cases, include_base_case=False)
    report = dc_engine.security_analysis(grid, SwitchConfig.all_closed(), without)
    assert None not in report.violating_contingencies


def test_structural_risk_two_edge_connected_is_zero():
    grid = ring_grid(6)
    cons = n_minus_1_contingencies(grid)
    assert structural_risk(grid, cons) == 0.0


def test_structural_risk_anchors(grid57, grid118, grid30):
    assert math.isclose(
        structural_risk(grid57, n_minus_1_contingencies(grid57)), 0.038, abs_tol=1e-9)
    assert math.isclose(
        structural_risk(grid118, n_minus_1_contingencies(grid118)), 2.99, abs_tol=1e-9)
    assert math.isclose(
        structural_risk(grid30, n_minus_1_contingencies(grid30)), 0.035, abs_tol=1e-9)


@pytest.mark.parametrize("name", ["grid30", "grid57"])
def test_structural_risk_prices_multi_branch_trips(name, request):
    # every two-branch trip priced from an independent search and raw sums
    grid = request.getfixturevalue(name)
    rng = random.Random(31)
    pairs = rng.sample(list(itertools.combinations(grid.branch_ids(), 2)), 150)
    cons = ContingencySet(cases=tuple(
        Contingency(id=j, tripped=frozenset(pair), probability=rng.choice([0.5, 1.0]))
        for j, pair in enumerate(pairs)))
    total_load = sum(b.pd_ref for b in grid.buses)
    expected, split = 0.0, 0
    for c in cons:
        on = oracle.bfs_energized(grid, set(grid.branch_ids()) - c.tripped,
                                  grid.reference_bus)
        load_on = sum(b.pd_ref for b in grid.buses if b.id in on)
        gen_on = sum(b.pg_ref for b in grid.buses if b.id in on)
        lost = total_load if gen_on <= 0.0 < load_on else total_load - load_on
        expected += c.probability * lost
        split += len(on) < grid.n_buses
    assert split > 0
    assert structural_risk(grid, cons) == pytest.approx(expected, abs=1e-10)


def test_objective_never_below_structural_risk(grid30):
    cons = n_minus_1_contingencies(grid30)
    sr = structural_risk(grid30, cons)
    analyzer = SecurityAnalyzer(grid30, cons)
    rng = random.Random(9)
    from conftest import random_connected_config
    for _ in range(20):
        config = random_connected_config(grid30, rng)
        report = analyzer.analyze(config)
        assert report.total_objective >= sr - 1e-9


def test_frontier_flows_are_zero_after_bridge_trip(grid57):
    cons = n_minus_1_contingencies(grid57)
    analyzer = SecurityAnalyzer(grid57, cons)
    config = SwitchConfig.all_closed()
    bridges = graph_ops.find_bridges(grid57, grid57.branch_ids())
    for e in bridges:
        state = analyzer.contingency_state(config, cons.by_id(e))
        if not state.de_energized:
            continue
        for other in grid57.branches:
            o_dead = other.origin in state.de_energized
            d_dead = other.destination in state.de_energized
            if o_dead != d_dead:
                k = grid57.branch_index(other.id)
                assert abs(state.flows[k]) < 1e-12


@pytest.mark.parametrize("name", ["grid14", "grid24", "grid30", "grid57", "grid118"])
def test_ptdf_bridge_mask_matches_find_bridges(name, request):
    # a configuration's PTDF is an update of the all-closed one, checked
    # against a fresh factorization; the screen reads bridges off its
    # self-sensitivities, checked against the lowlink traversal. On a
    # spanning tree every closed branch is a bridge.
    grid = request.getfixturevalue(name)
    analyzer = SecurityAnalyzer(grid, n_minus_1_contingencies(grid))
    rng = random.Random(41)
    configs = [SwitchConfig.all_closed()]
    configs += [random_connected_config(grid, rng, max_open=8) for _ in range(20)]
    trees = [spanning_tree_config(grid, rng) for _ in range(5)]
    assert all(t.n_open == grid.n_branches - grid.n_buses + 1 for t in trees)
    for config in configs + trees:
        closed = config.closed_set(grid)
        topology = analyzer._topology(config)
        assert np.abs(topology.ptdf - ptdf_matrix(grid, closed)).max() < 1e-10, config
        got = {grid.branches[k].id for k in np.flatnonzero(topology.bridge)}
        assert got == graph_ops.find_bridges(grid, closed), config
    assert all(analyzer._topology(t).bridge.sum() == grid.n_buses - 1 for t in trees)


@pytest.mark.parametrize("case,tlf", [("case118_ieee.m", 1.25), ("case57_ieee.m", 1.0),
                                      ("case30_ieee.m", 0.6)])
def test_reports_match_naive_recompute(case, tlf):
    # every case of the report against an independent power flow per trip;
    # on 30@0.6 the base is overloaded, and so is every trip of an open branch
    grid = load_grid(case, tlf)
    cons = n_minus_1_contingencies(grid)
    analyzer = SecurityAnalyzer(grid, cons)
    rng = random.Random(57)
    tol = analyzer.tolerance

    def overloads(flows):
        return {e.id: abs(flows[e.id]) - e.thermal_limit for e in grid.branches
                if abs(flows[e.id]) - e.thermal_limit > tol}

    for _ in range(100):
        config = random_connected_config(grid, rng)
        report = analyzer.analyze(config)
        expected, loss = {}, {}
        base = dc_power_flow(grid, config.closed_set(grid), grid.pg - grid.pd)
        if over := overloads(base.flows):
            expected[None] = (over, frozenset())
        for c in cons:
            state, _, ll, dead = _naive_contingency_state(grid, config, c)
            if ll > 1e-12:
                loss[c.id] = ll
            if over := overloads(state.flows):
                expected[c.id] = (over, dead)
        assert report.violating_contingencies.keys() == expected.keys(), config
        for cid, (over, dead) in expected.items():
            detail = report.violating_contingencies[cid]
            assert detail.violated_branches.keys() == over.keys(), (config, cid)
            assert detail.de_energized == dead, (config, cid)
            for e, value in over.items():
                assert detail.violated_branches[e] == pytest.approx(value, abs=1e-9)
            assert detail.violated_branches == dict(detail.violated_branches.items())
            assert dict(detail.violated_branches.items()) == detail.violated_branches
        assert report.loss_of_load.keys() == loss.keys(), config
        assert report.total_objective == pytest.approx(sum(loss.values()), abs=1e-9)
    assert ViolationDetail(violated_branches={7: 0.5}, loss_of_load=0.0,
                           de_energized=frozenset()).violated_branches == {7: 0.5}


def test_contingency_state_rejects_disconnected_base():
    grid = toy_grid()
    analyzer = SecurityAnalyzer(grid, n_minus_1_contingencies(grid))
    with pytest.raises(DisconnectedCase):
        analyzer.contingency_state(SwitchConfig.with_open([4]), None)


def _check_kirchhoff(grid, closed, on, flows, injection):
    """KCL at every energized bus, zero flow on every branch touching a dead
    bus, and KVL: angles grown along a search tree explain every live flow."""
    live = [e for e in grid.branches if e.id in closed
            and e.origin in on and e.destination in on]
    for e in grid.branches:
        if e.origin not in on or e.destination not in on or e.id not in closed:
            assert abs(flows[e.id]) < 1e-12, e.id
    for b in grid.buses:
        if b.id in on:
            net = (sum(flows[e.id] for e in live if e.origin == b.id)
                   - sum(flows[e.id] for e in live if e.destination == b.id))
            assert abs(net - injection[b.id]) < 1e-8, b.id
    theta = {grid.reference_bus: 0.0}
    grown = True
    while grown:
        grown = False
        for e in live:
            if (e.origin in theta) != (e.destination in theta):
                if e.origin in theta:
                    theta[e.destination] = theta[e.origin] + flows[e.id] / e.susceptance
                else:
                    theta[e.origin] = theta[e.destination] - flows[e.id] / e.susceptance
                grown = True
    assert set(theta) == set(on)
    for e in live:
        assert abs(flows[e.id] - e.susceptance * (theta[e.destination] - theta[e.origin])) < 1e-8


def test_two_branch_trips_against_independent_checks(grid30):
    rng = random.Random(23)
    pairs = rng.sample(list(itertools.combinations(grid30.branch_ids(), 2)), 120)
    cons = ContingencySet(cases=tuple(
        Contingency(id=j, tripped=frozenset(pair), probability=0.5)
        for j, pair in enumerate(pairs)))
    analyzer = SecurityAnalyzer(grid30, cons)
    total_load = sum(b.pd_ref for b in grid30.buses)
    stranded = 0
    for _ in range(5):
        config = random_connected_config(grid30, rng)
        report = analyzer.analyze(config)
        expected_loss, violating = {}, set()
        for c in cons:
            state = analyzer.contingency_state(config, c)
            closed = config.closed_set(grid30, c)
            on = oracle.bfs_energized(grid30, closed, grid30.reference_bus)
            assert state.de_energized == frozenset(grid30.bus_ids()) - on
            load_on = sum(b.pd_ref for b in grid30.buses if b.id in on)
            gen_on = sum(b.pg_ref for b in grid30.buses if b.id in on)
            if gen_on <= 0.0 and load_on > 0.0:
                assert state.unbalanceable
                assert state.loss_of_load == pytest.approx(total_load, abs=1e-12)
                expected_loss[c.id] = total_load
                continue
            sigma = load_on / gen_on if gen_on > 0.0 else 0.0
            assert abs(state.sigma - sigma) < 1e-9
            assert abs(state.loss_of_load - (total_load - load_on)) < 1e-9
            if total_load - load_on > 1e-9:
                expected_loss[c.id] = total_load - load_on
                stranded += 1
            flows = {e.id: float(state.flows[k]) for k, e in enumerate(grid30.branches)}
            injection = {b.id: sigma * b.pg_ref - b.pd_ref for b in grid30.buses}
            _check_kirchhoff(grid30, closed, on, flows, injection)
            if any(abs(flows[e.id]) > e.thermal_limit + analyzer.tolerance
                   for e in grid30.branches):
                violating.add(c.id)
        assert report.loss_of_load.keys() == expected_loss.keys()
        for cid, ll in expected_loss.items():
            assert report.loss_of_load[cid] == pytest.approx(ll, abs=1e-9)
        assert report.total_objective == pytest.approx(
            0.5 * sum(expected_loss.values()), abs=1e-9)
        assert set(report.violating_contingencies) - {None} == violating
    assert stranded > 0


@pytest.mark.parametrize("name, tlf, bridges", [("case30_ieee.m", 1.0, ()),
                                                ("case57_ieee.m", 0.9, ()),
                                                ("case118_ieee.m", 1.35, (7, 9))])
def test_plan_filter_is_sound(name, tlf, bridges):
    # the batched plan update against contingency_state on random plans of 1
    # to 3 openings: equal flows up to float dust, in the base case, after
    # bridge trips and after trips of opened branches; a plan the filter
    # rejects fails the exact screen, and a disconnecting plan always passes
    grid = load_grid(name, tlf)
    cons = n_minus_1_contingencies(grid)
    analyzer = SecurityAnalyzer(grid, cons)
    rng = random.Random(17)
    ids = list(grid.branch_ids())
    worst = 0.0
    seen = dict(rejected=0, disconnected=0, bridge=0, opened=0)
    for _ in range(12):
        working = [cons.by_id(cid) for cid in bridges + tuple(rng.sample(ids, 3))]
        # openings drawn among the tripped branches and a few others, so that
        # plans often open a tripped branch
        pool = sorted({e for c in working for e in c.tripped} | set(rng.sample(ids, 6)))
        ks = np.array([grid.branch_index(next(iter(c.tripped))) for c in working])
        for size in (1, 2, 3):
            batch = [tuple(sorted(rng.sample(pool, size))) for _ in range(5)]
            opens = np.array([[grid.branch_index(e) for e in plan] for plan in batch])
            held = analyzer.may_hold(opens, working)
            whole, flows = analyzer._plan_flows(opens, ks)
            for n, plan in enumerate(batch):
                config = SwitchConfig.with_open(plan)
                try:
                    states = [analyzer.contingency_state(config, c) for c in [None, *working]]
                except DisconnectedCase:
                    seen["disconnected"] += 1
                    assert held[n] and not whole[n], plan
                    continue
                assert whole[n], plan
                exact = np.column_stack([s.flows for s in states])
                worst = max(worst, float(np.abs(flows[n] - exact).max()))
                seen["bridge"] += sum(bool(s.de_energized) for s in states)
                seen["opened"] += sum(bool(c.tripped & set(plan)) for c in working)
                if not held[n]:
                    seen["rejected"] += 1
                    assert np.any(np.abs(exact) - grid.limit[:, None] > analyzer.tolerance)
    assert worst < dc_engine._MARGIN * 1e-3, worst
    assert all(seen.values()), seen
