import hashlib
import itertools
import math
import random
import time

import numpy as np
import pytest

from otsd import graph_ops, n_minus_1_contingencies, oracle
from otsd.backend import ScipyHighsBackend, Status
from otsd.dc_engine import SecurityAnalyzer, dc_power_flow, structural_risk
from otsd.errors import DuplicateContingency, InsecurePlan
from otsd.grid import Branch, Bus, Contingency, ContingencySet, Grid, SwitchConfig
from otsd.milp_model import (
    BASE_CASE,
    BigMConfig,
    OMIT,
    build_base_case,
    fixed_config_flows,
    reduce_violations,
    remove_unnecessary_openings,
    solve_extensive,
)
from otsd.results import SolveStatus

from conftest import (
    Recorded,
    balanced_island_grid,
    load_grid,
    random_connected_config,
    record_highs_runs,
    ring_grid,
    six_bus_grid,
    toy_grid,
)


def test_bigm_sigma_bound_formula(grid14):
    bigm = BigMConfig()
    bound = bigm.sigma_bound(grid14)
    positive = [g for g in grid14.pg if g > 0]
    assert bound == pytest.approx(min(grid14.total_load / min(positive), 10.0))
    assert BigMConfig(sigma_max=5.0).sigma_bound(grid14) == 5.0


def test_base_case_fixed_all_closed_matches_engine(grid14):
    model = build_base_case(grid14)
    model.fix_config(SwitchConfig.all_closed())
    model.backend.set_objective({}, "min")
    status = model.solve_with_separation()
    assert status.has_solution
    flows = model.base_flow_values()
    ref = dc_power_flow(grid14, grid14.branch_ids(), grid14.pg - grid14.pd)
    for e in grid14.branches:
        assert abs(flows[e.id] - ref.flows[e.id]) < 1e-6


def test_base_case_disconnecting_config_infeasible():
    grid = toy_grid()
    model = build_base_case(grid)
    model.fix_config(SwitchConfig.with_open([4]))  # strands bus 4
    model.backend.set_objective({}, "min")
    assert model.backend.solve() is Status.INFEASIBLE


def test_two_bus_single_branch_open_infeasible():
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0)]
    branches = [Branch(1, 1, 2, 10.0, 2.0)]
    grid = Grid(buses, branches, reference_bus=1)
    model = build_base_case(grid)
    model.fix_config(SwitchConfig.with_open([1]))
    model.backend.set_objective({}, "min")
    assert model.backend.solve() is Status.INFEASIBLE


def test_virtual_flow_iff_connectivity_enumerated():
    """Fixed switching state is feasible exactly when the closed graph is connected."""
    grid = six_bus_grid()
    ids = list(grid.branch_ids())
    for bits in itertools.product([0, 1], repeat=len(ids)):
        closed = {e for e, bit in zip(ids, bits) if bit}
        model = build_base_case(grid, base_thermal=OMIT)
        model.fix_config(SwitchConfig(frozenset(set(ids) - closed)))
        model.backend.set_objective({}, "min")
        status = model.backend.solve()
        connected = len(oracle.bfs_energized(grid, closed, grid.reference_bus)) \
            == grid.n_buses
        assert status.has_solution == connected, f"closed={sorted(closed)}"


def test_duplicate_contingency_rejected():
    grid = toy_grid()
    model = build_base_case(grid)
    c = Contingency(id=1, tripped=frozenset({1}), probability=1.0)
    model.add_contingency_block(c)
    with pytest.raises(DuplicateContingency):
        model.add_contingency_block(c)


def test_pi_all_ones_when_connected():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = fixed_config_flows(grid, SwitchConfig.all_closed(),
                             ContingencySet(cases=(cons.by_id(3),)))
    state = res.states[3]  # triangle leg: no disconnection
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in state.pi.values())
    assert state.loss_of_load == pytest.approx(0.0, abs=1e-9)


def test_load_only_island_pi_forced_zero_without_cutsets():
    """KCL alone de-energizes islands that contain only load."""
    grid = toy_grid()
    model = build_base_case(grid, base_thermal=OMIT)
    model.fix_config(SwitchConfig.all_closed())
    c = Contingency(id=4, tripped=frozenset({4}), probability=1.0)
    model.add_contingency_block(c, OMIT)
    model.set_loss_objective()
    status = model.backend.solve()  # deliberately no separation
    assert status.has_solution
    assert model.pi_values(4)[4] == pytest.approx(0.0, abs=1e-7)


def test_balanced_island_needs_cutsets():
    """A perfectly balanced island admits an energized solution until the
    frontier cutset lands; one constraint per island bus, then fixpoint."""
    grid = balanced_island_grid()
    model = build_base_case(grid, base_thermal=OMIT)
    model.fix_config(SwitchConfig.all_closed())
    c = Contingency(id=3, tripped=frozenset({3}), probability=1.0)
    model.add_contingency_block(c, OMIT)
    model.set_loss_objective()
    assert model.backend.solve().has_solution
    pi = model.pi_values(3)
    assert pi[4] == pytest.approx(1.0, abs=1e-7)
    assert pi[5] == pytest.approx(1.0, abs=1e-7)

    added = model.separate_cutsets()
    assert len(added) == 2  # one per island bus
    assert all(cut == frozenset({3}) for _, _, cut in added)

    assert model.backend.solve().has_solution
    pi = model.pi_values(3)
    assert pi[4] == pytest.approx(0.0, abs=1e-7)
    assert pi[5] == pytest.approx(0.0, abs=1e-7)
    assert model.separate_cutsets() == []  # fixpoint reached
    assert model.ll_value(3) == pytest.approx(0.5, abs=1e-7)


def test_pi_matches_bfs_oracle_random_configs(grid30):
    cons = n_minus_1_contingencies(grid30)
    rng = random.Random(17)
    cuts = 0
    for _ in range(5):
        config = random_connected_config(grid30, rng)
        model = build_base_case(grid30, base_thermal=OMIT)
        model.fix_config(config)
        for c in cons:
            model.add_contingency_block(c, OMIT)
        model.set_loss_objective()
        assert model.solve_with_separation().has_solution
        for c in cons:
            on = oracle.bfs_energized(grid30, config.closed_set(grid30, c),
                                      grid30.reference_bus)
            for bus, val in model.pi_values(c.id).items():
                assert min(abs(val), abs(1.0 - val)) < 1e-6
                assert (val > 0.5) == (bus in on)
        # each cutset read off a block's labels is the per-bus frontier cutset
        for cid, bus, cut in model._cutset_registry:
            opened = config.open_branches | cons.by_id(cid).tripped
            assert graph_ops.separating_cutset(grid30, opened, bus).branches == cut
            cuts += 1
    assert cuts > 0


def test_bigm_soundness_on_solution():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = solve_extensive(grid, cons, time_limit=60)
    assert res.status is SolveStatus.OPTIMAL
    model = build_base_case(grid)
    for c in cons:
        model.add_contingency_block(c)
    model.set_loss_objective()
    model.fix_config(res.config)
    assert model.solve_with_separation().has_solution
    base, x = model.blocks[BASE_CASE], model.backend.solution
    theta = dict(zip(grid.bus_ids(), x[base.theta]))
    for e in grid.branches:
        f = x[base.flow[grid.branch_index(e.id)]]
        if e.id in res.config.open_branches:
            assert abs(f) < 1e-7
        else:
            expected = e.susceptance * (theta[e.destination] - theta[e.origin])
            assert abs(f - expected) < 1e-7


def test_solve_extensive_toy_matches_exhaustive():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = solve_extensive(grid, cons, time_limit=60)
    ex = oracle.exhaustive_otsd(grid, cons, max_openings=4)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(ex.objective, abs=1e-6)
    assert frozenset(res.openings) in {c.open_branches for c in ex.best_configs}


def test_solve_extensive_infeasible_instance():
    # parallel circuits sized so that losing either overloads the other,
    # and the loaded bus can never be shed (always connected)
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0)]
    branches = [Branch(1, 1, 2, 10.0, 0.7), Branch(2, 1, 2, 10.0, 0.7)]
    grid = Grid(buses, branches, reference_bus=1)
    cons = n_minus_1_contingencies(grid)
    res = solve_extensive(grid, cons, time_limit=60)
    assert res.status is SolveStatus.INFEASIBLE


def test_fixed_config_flows_matches_engine_states(grid14):
    """Every state of one configuration's program, moved from trip to trip,
    is the engine's: a cutset left over from an earlier trip would strand
    the balanced island's buses under trips 4 and 5."""
    rng = random.Random(3)
    cases = [(grid14, [random_connected_config(grid14, rng, max_open=3) for _ in range(3)]),
             (balanced_island_grid(), [SwitchConfig.all_closed()])]
    for grid, configs in cases:
        cons = n_minus_1_contingencies(grid)
        analyzer = SecurityAnalyzer(grid, cons)
        for config in configs:
            res = fixed_config_flows(grid, config, cons)
            for c in cons:
                state = res.states[c.id]
                eng = analyzer.contingency_state(config, c)
                assert state.feasible == (not eng.unbalanceable), (grid.name, config, c.id)
                if not state.feasible:
                    continue
                assert state.sigma == pytest.approx(eng.sigma, abs=1e-8)
                assert state.loss_of_load == pytest.approx(eng.loss_of_load, abs=1e-9)
                for e in grid.branches:
                    k = grid.branch_index(e.id)
                    assert state.flows[e.id] == pytest.approx(eng.flows[k], abs=1e-6)


def test_reduce_violations_zero_objective_is_feasible():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    working = [cons.by_id(1), cons.by_id(2), cons.by_id(4)]
    rv = reduce_violations(grid, working, switchable=set(grid.branch_ids()))
    assert rv.objective == pytest.approx(0.0, abs=1e-9)
    assert not rv.residual
    # verify by an independent security pass restricted to the working cases
    analyzer = SecurityAnalyzer(grid, ContingencySet(cases=tuple(working)))
    report = analyzer.analyze(rv.config)
    assert report.clean


def test_reduce_violations_no_freedom_reports_residuals():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    working = [cons.by_id(1), cons.by_id(2)]
    rv = reduce_violations(grid, working, switchable=set())
    assert rv.config.n_open == 0
    assert rv.residual == {1, 2}
    # each trip pushes the surviving triangle leg 0.5 over its limit
    assert rv.objective == pytest.approx(1.0, abs=1e-6)


def test_reduce_violations_growing_switchable_never_worse():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    working = [cons.by_id(1), cons.by_id(2)]
    prev = math.inf
    for switchable in [set(), {3}, {3, 4}, set(grid.branch_ids())]:
        rv = reduce_violations(grid, working, switchable=switchable)
        assert rv.objective <= prev + 1e-9
        prev = rv.objective


def test_remove_unnecessary_openings_noop_when_clean():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    out = remove_unnecessary_openings(grid, SwitchConfig.all_closed(),
                                      [cons.by_id(4)])
    assert out.open_branches == frozenset()


def test_remove_unnecessary_openings_recloses_irrelevant():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    working = [cons.by_id(1), cons.by_id(2)]
    vfsol = SwitchConfig.with_open([3, 4])
    out = remove_unnecessary_openings(grid, vfsol, working)
    assert out.open_branches == frozenset({3})
    # safety: still feasible on the working set
    report = SecurityAnalyzer(grid, ContingencySet(cases=tuple(working))).analyze(out)
    assert report.clean


def test_remove_unnecessary_openings_subset_property(grid30):
    cons = n_minus_1_contingencies(grid30)
    rng = random.Random(23)
    for _ in range(3):
        config = random_connected_config(grid30, rng, max_open=4)
        working = [cons.by_id(rng.choice(list(grid30.branch_ids())))]
        out = remove_unnecessary_openings(grid30, config, working)
        assert out.open_branches <= config.open_branches


def test_extensive_objective_not_below_structural_risk():
    # summed from the program's loss-of-load variables, the objective of this
    # instance carries solver dust below the bound (-2.7e-15)
    grid = load_grid("case14_ieee.m", tlf=2.0)
    cons = n_minus_1_contingencies(grid)
    res = solve_extensive(grid, cons)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective >= structural_risk(grid, cons)


def test_secure_all_closed_grid_is_optimal_without_a_program():
    """A clean all-closed screen meets the structural risk, which bounds
    every plan: the extensive program built by hand reaches the same
    optimum, and ``solve_extensive`` never builds it."""
    def no_program():
        raise AssertionError("solve_extensive built a program")

    grids = [load_grid("case14_ieee.m", tlf=2.0), six_bus_grid(),
             balanced_island_grid(), ring_grid(6, limit=2.0)]
    for grid in grids:
        cons = n_minus_1_contingencies(grid)
        assert SecurityAnalyzer(grid, cons).analyze(SwitchConfig.all_closed()).clean
        res = solve_extensive(grid, cons, backend_factory=no_program)
        assert res.status is SolveStatus.OPTIMAL, grid.name
        assert res.openings == []
        assert res.objective == res.bound == structural_risk(grid, cons)

        model = build_base_case(grid)
        for c in cons:
            model.add_contingency_block(c)
        model.set_loss_objective()
        assert model.solve_with_separation() is Status.OPTIMAL, grid.name
        assert model.backend.objective_value == pytest.approx(res.objective, abs=1e-6)


@pytest.mark.parametrize("name, tlf", [("case24_ieee_rts.m", 1.0), ("case57_ieee.m", 1.25)])
def test_secure_all_closed_grid_returns_at_once(name, tlf):
    """Both instances time out with no incumbent after 60 s when the
    program is solved, although the all-closed grid is secure."""
    grid = load_grid(name, tlf=tlf)
    cons = n_minus_1_contingencies(grid)
    t0 = time.monotonic()
    res = solve_extensive(grid, cons, time_limit=60)
    assert time.monotonic() - t0 < 1.0
    assert res.status is SolveStatus.OPTIMAL
    assert res.openings == [] and res.objective == structural_risk(grid, cons)


def test_extensive_plan_failing_the_screen_raises(grid14):
    """A plan the engine finds violating is an error, never OPTIMAL: the
    backend here reads every switching column as closed, and the all-closed
    case14 grid is not secure at tlf 1.0."""
    class ReadsAllClosed(ScipyHighsBackend):
        @property
        def solution(self):
            x = super().solution.copy()
            x[:grid14.n_branches] = 1.0  # the switching columns come first
            return x

    cons = n_minus_1_contingencies(grid14)
    with pytest.raises(InsecurePlan):
        solve_extensive(grid14, cons, backend_factory=ReadsAllClosed)


def _program_digest(monkeypatch, run, call: int) -> str:
    """sha256 of every array HiGHS receives at run number ``call`` of
    ``run``, as ``record_highs_runs`` records it; the runs before it go ahead."""
    with monkeypatch.context() as patch, pytest.raises(Recorded):
        programs = record_highs_runs(patch, stop_at=call)
        run()
    program = programs[call]
    a = program["A"]
    assert a.has_sorted_indices
    digest = hashlib.sha256()
    for key in ("c", "integrality", "lb", "ub"):
        digest.update(np.asarray(program[key], dtype=np.float64).tobytes())
    for arr in (a.shape, a.indptr, a.indices):
        digest.update(np.asarray(arr, dtype=np.int64).tobytes())
    for arr in (a.data, program["row_lb"], program["row_ub"]):
        digest.update(np.asarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_programs_handed_to_highs_are_pinned(grid14, monkeypatch):
    """Column order, row order and coefficients of five programs are fixed:
    any change to them moves HiGHS's search path. The two
    ``fixed_config_flows`` programs are live LPs, one of them the re-solve
    after the first cutset round of the balanced-island toy."""
    cons = n_minus_1_contingencies(grid14)
    working = [cons.by_id(1), cons.by_id(7), cons.by_id(14)]
    island = balanced_island_grid()
    bridge_trip = Contingency(id=3, tripped=frozenset({3}), probability=1.0)
    programs = {  # name -> (run, number of the HiGHS run to hash)
        "extensive": (lambda: solve_extensive(grid14, cons), 0),
        "reduce_violations": (lambda: reduce_violations(
            grid14, working, switchable={3, 4, 5, 6, 10}), 0),
        "fixed_config_flows": (lambda: fixed_config_flows(
            grid14, SwitchConfig.with_open([3, 19]),
            ContingencySet(cases=(cons.by_id(12),))), 0),
        "after_cutsets": (lambda: fixed_config_flows(
            island, SwitchConfig.all_closed(), ContingencySet(cases=(bridge_trip,))), 1),
        "remove_unnecessary_openings": (lambda: remove_unnecessary_openings(
            grid14, SwitchConfig.with_open([3, 5, 10]), working), 0),
    }
    got = {name: _program_digest(monkeypatch, run, call)
           for name, (run, call) in programs.items()}
    assert got == {
        "extensive": "49c1d2feaa05b8e8171cab5d8e0f45f48fcb52e221c205b90f28b5ecfa8630f5",
        "reduce_violations": "2cd554f6856414b445b701862f259ae4bb9addf2595ee3194890dc0f1a392979",
        "fixed_config_flows": "66ee04fda7a7bda1a85d867b87b1775f337add97c4b8a84837ade5181cd78f64",
        "after_cutsets": "115fad002972d7449c5c65ce1f14d4d155865567a89482fdb59f977e7058c052",
        "remove_unnecessary_openings":
            "17b0f8fba5c629fd3e32a021543f0d8df10952f86ac0a70e76d5f22d1fd8ade5",
    }
