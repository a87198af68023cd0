"""Acceptance gate: one test per criterion, one printed PASS/FAIL line per item.

Benchmark target values come from the published study of these instances; the
bundled case files are reconstructions (see data/README.md), so items that
depend on exact thermal-rating data may fail against those targets. Failures
carry the computed value so the divergence is visible.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import itertools
import math
import os
import random
import time

from otsd import graph_ops, heuristic, milp_model, n_minus_1_contingencies
from otsd.dc_engine import SecurityAnalyzer, structural_risk
from otsd.grid import ContingencySet, SwitchConfig
from otsd.heuristic import HeuristicParams
from otsd.milp_model import OMIT, build_base_case, fixed_config_flows, solve_extensive
from otsd.oracle import bfs_energized, exhaustive_otsd
from otsd.results import SolveStatus

from conftest import (
    balanced_island_grid,
    case_path,
    load_grid,
    pinch_grid,
    random_connected_config,
    ring_grid,
    six_bus_grid,
    toy_grid,
)
from test_oracle import five_bus_fixture

# results stashed by criteria 3-5 and re-checked by criterion 6
_FEASIBLE_SOLVES: list[tuple[str, float, int, float]] = []  # (label, obj, openings, sr)


def _emit(items):
    failed = []
    for name, ok, detail in items:
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failed.append(name)
    assert not failed, f"failed items: {failed}"


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def _pi_suite(grid, n_configs, seed):
    cons = n_minus_1_contingencies(grid)
    bounds = milp_model.security_program_bounds(grid)
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_configs):
        config = random_connected_config(grid, rng)
        model = build_base_case(grid, bigm=bounds, base_thermal=OMIT)
        model.fix_config(config)
        for c in cons:
            model.add_contingency_block(c, OMIT)
        model.set_loss_objective()
        status = model.solve_with_separation()
        assert status.has_solution, f"security program unsolvable for {config}"
        for c in cons:
            on = bfs_energized(grid, config.closed_set(grid, c), grid.reference_bus)
            for bus, val in model.pi_values(c.id).items():
                gap = min(abs(val), abs(1.0 - val))
                worst = max(worst, gap)
                if gap > 1e-6 or (val > 0.5) != (bus in on):
                    return False, (f"config {sorted(config.open_branches)} case {c.id} "
                                   f"bus {bus}: pi={val}")
    return True, f"worst integrality gap {worst:.2e}"


def test_criterion_1_energization_identity():
    """Continuous energization variables, separated to fixpoint, are integral
    and coincide with graph reachability on the three small systems."""
    t0 = time.monotonic()
    items = []
    for name, n, seed in [("case14_ieee.m", 200, 14), ("case30_ieee.m", 200, 30),
                          ("case57_ieee.m", 200, 57)]:
        grid = load_grid(name)
        ok, detail = _pi_suite(grid, n, seed=seed)
        items.append((f"1.{name.split('_')[0]}", ok, detail))
    elapsed = time.monotonic() - t0
    items.append(("1.runtime", elapsed < 300.0, f"{elapsed:.1f}s (budget 300s)"))
    _emit(items)


def test_criterion_2_fast_path_equivalence(grid118):
    """Closed-form screening engine and the fixed-configuration program agree
    on flows, rescale factor, and served load across random 118-bus states."""
    t0 = time.monotonic()
    cons = n_minus_1_contingencies(grid118)
    analyzer = SecurityAnalyzer(grid118, cons)
    rng = random.Random(1188)
    worst_flow = worst_sigma = worst_ll = 0.0
    checked = 0
    for _ in range(50):
        config = random_connected_config(grid118, rng)
        milp_res = fixed_config_flows(grid118, config, cons)
        for c in cons:
            state = milp_res.states[c.id]
            eng = analyzer.contingency_state(config, c)
            if not state.feasible or eng.unbalanceable:
                assert state.feasible == (not eng.unbalanceable)
                continue
            checked += 1
            # discrete agreement is exact: same de-energized set
            dead_milp = {b for b, v in state.pi.items() if v < 0.5}
            assert dead_milp == set(eng.de_energized), (config, c.id)
            worst_sigma = max(worst_sigma, abs(state.sigma - eng.sigma))
            worst_ll = max(worst_ll, abs(state.loss_of_load - eng.loss_of_load))
            for e in grid118.branches:
                k = grid118.branch_index(e.id)
                worst_flow = max(worst_flow, abs(state.flows[e.id] - eng.flows[k]))
    elapsed = time.monotonic() - t0
    _emit([
        ("2.flows", worst_flow <= 1e-6, f"max flow gap {worst_flow:.2e} over {checked} states"),
        ("2.sigma", worst_sigma <= 1e-8, f"max sigma gap {worst_sigma:.2e}"),
        ("2.loss_of_load", worst_ll <= 1e-6, f"max served-load gap {worst_ll:.2e}"),
        ("2.runtime", elapsed < 600.0, f"{elapsed:.1f}s (budget 600s)"),
    ])


def _heuristic_run(case, tlf, budget=120.0):
    grid = load_grid(case, tlf=tlf)
    cons = n_minus_1_contingencies(grid)
    t0 = time.monotonic()
    res = heuristic.solve(grid, cons,
                          HeuristicParams(time_limit=budget))
    elapsed = time.monotonic() - t0
    sr = structural_risk(grid, cons)
    if res.status.is_feasible:
        _FEASIBLE_SOLVES.append((f"{case}@{tlf:g}", res.objective,
                                 res.n_openings, sr))
    return res, elapsed, sr


def test_criterion_3_benchmark_table_heuristic():
    """Heuristic runs against the published benchmark rows, after calibrating
    the probability convention on the two structural-risk anchors."""
    items = []

    sr57 = structural_risk(load_grid("case57_ieee.m"),
                           n_minus_1_contingencies(load_grid("case57_ieee.m")))
    sr118 = structural_risk(load_grid("case118_ieee.m"),
                            n_minus_1_contingencies(load_grid("case118_ieee.m")))
    items.append(("3.calibration.sr57", abs(sr57 - 0.038) < 1e-9,
                  f"SR={sr57:.6g} target 0.038"))
    items.append(("3.calibration.sr118", abs(sr118 - 2.99) <= 0.01,
                  f"SR={sr118:.6g} target 2.99+-0.01"))

    res, t, _ = _heuristic_run("case14_ieee.m", 1.0)
    ok = (res.status.is_feasible and abs(res.objective - 2.37) <= 0.01
          and res.n_openings <= 2)
    items.append(("3.14@100", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} openings={res.n_openings} "
                  f"target 2.37+-0.01/<=2 [{t:.1f}s]"))
    items.append(("3.14@100.runtime", t < 120.0, f"{t:.1f}s"))

    res, t, _ = _heuristic_run("case24_ieee_rts.m", 1.0)
    ok = res.status.is_feasible and abs(res.objective - 1.66) <= 0.01
    items.append(("3.24@100", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} target 1.66+-0.01 [{t:.1f}s]"))
    items.append(("3.24@100.runtime", t < 120.0, f"{t:.1f}s"))

    res, t, _ = _heuristic_run("case30_ieee.m", 1.2)
    ok = res.status.is_feasible and abs(res.objective - 6.82) <= 0.01
    items.append(("3.30@120", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} target 6.82+-0.01 [{t:.1f}s]"))
    items.append(("3.30@120.runtime", t < 120.0, f"{t:.1f}s"))

    res, t, _ = _heuristic_run("case30_ieee.m", 1.0)
    ok = res.status in (SolveStatus.INFEASIBLE, SolveStatus.INFEASIBLE_WITHIN_HORIZON)
    items.append(("3.30@100", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} target infeasible [{t:.1f}s]"))
    items.append(("3.30@100.runtime", t < 120.0, f"{t:.1f}s"))

    res, t, _ = _heuristic_run("case57_ieee.m", 2.0)
    ok = (res.status.is_feasible and abs(res.objective - 0.038) <= 0.001
          and res.n_openings == 0)
    items.append(("3.57@200", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} openings={res.n_openings} "
                  f"target 0.038+-0.001/0 [{t:.1f}s]"))
    items.append(("3.57@200.runtime", t < 120.0, f"{t:.1f}s"))

    path200 = case_path("case200_activ.m")
    if os.path.exists(path200):
        res, t, _ = _heuristic_run("case200_activ.m", 0.55)
        ok = res.status is SolveStatus.BASE_CASE_INFEASIBLE
        items.append(("3.200@55", ok,
                      f"{res.status.value} target base-case-infeasible [{t:.1f}s]"))
    else:
        items.append(("3.200@55", False,
                      "case file not available in this distribution; "
                      "place the authoritative file at data/case200_activ.m "
                      "(see data/README.md)"))

    _emit(items)


def test_criterion_4_benchmark_table_extensive():
    """Extensive program at desk scale: the two tractable benchmark rows."""
    items = []
    budget = 1800.0

    grid = load_grid("case14_ieee.m")
    cons = n_minus_1_contingencies(grid)
    t0 = time.monotonic()
    res = solve_extensive(grid, cons, time_limit=budget)
    t = time.monotonic() - t0
    if res.status.is_feasible:
        _FEASIBLE_SOLVES.append((f"extensive case14@1", res.objective,
                                 res.n_openings, structural_risk(grid, cons)))
    ok = res.status.is_feasible and abs(res.objective - 2.37) <= 0.01
    items.append(("4.14@100", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} target 2.37+-0.01 [{t:.0f}s]"))
    items.append(("4.14@100.runtime", t < budget, f"{t:.0f}s (budget {budget:.0f}s)"))

    grid = load_grid("case30_ieee.m", tlf=1.2)
    cons = n_minus_1_contingencies(grid)
    t0 = time.monotonic()
    res = solve_extensive(grid, cons, time_limit=budget)
    t = time.monotonic() - t0
    if res.status.is_feasible:
        _FEASIBLE_SOLVES.append((f"extensive case30@1.2", res.objective,
                                 res.n_openings, structural_risk(grid, cons)))
    ok = res.status.is_feasible and abs(res.objective - 6.82) <= 0.01
    items.append(("4.30@120", ok,
                  f"{res.status.value} obj={_fmt(res.objective)} target 6.82+-0.01 [{t:.0f}s]"))
    items.append(("4.30@120.runtime", t < budget, f"{t:.0f}s (budget {budget:.0f}s)"))

    _emit(items)


def _constructed_instances():
    return [
        ("toy4", toy_grid(), 4),
        ("five-bus", five_bus_fixture(), 5),
        ("pinch", pinch_grid(), 4),
        ("six9", six_bus_grid(), 9),
        ("ring6-tight", ring_grid(6, limit=0.5), 6),
        ("balanced-island", balanced_island_grid(), 5),
    ]


def test_criterion_5_oracle_equivalence():
    """Exhaustive enumeration, the extensive program, and the heuristic agree
    on feasibility; objective ordering holds; the exact solver is exact."""
    items = []
    for label, grid, max_open in _constructed_instances():
        cons = n_minus_1_contingencies(grid)
        ex = exhaustive_otsd(grid, cons, max_openings=max_open)
        res = solve_extensive(grid, cons, time_limit=300)
        h = heuristic.solve(grid, cons, HeuristicParams(time_limit=120))
        agree = (ex.feasible == res.status.is_feasible == h.status.is_feasible)
        exact = (not ex.feasible) or abs(res.objective - ex.objective) <= 1e-6
        ordered = (not ex.feasible) or h.objective >= ex.objective - 1e-9
        ok = agree and exact and ordered
        detail = (f"exhaustive={_fmt(ex.objective)} extensive={_fmt(res.objective)} "
                  f"heuristic={_fmt(h.objective)} verdicts "
                  f"{ex.feasible}/{res.status.value}/{h.status.value}")
        items.append((f"5.{label}", ok, detail))
        if h.status.is_feasible:
            sr = structural_risk(grid, cons)
            _FEASIBLE_SOLVES.append((f"heuristic {label}", h.objective,
                                     h.n_openings, sr))
            _FEASIBLE_SOLVES.append((f"extensive {label}", res.objective,
                                     res.n_openings, sr))

    grid = load_grid("case14_ieee.m")
    cons = n_minus_1_contingencies(grid)
    ex = exhaustive_otsd(grid, cons, max_openings=2)
    res = solve_extensive(grid, cons, time_limit=600)
    h = heuristic.solve(grid, cons, HeuristicParams(time_limit=120))
    ok = (ex.feasible and res.status.is_feasible and h.status.is_feasible
          and h.objective >= ex.objective - 1e-9
          and abs(res.objective - ex.objective) <= 1e-6)
    items.append(("5.case14-budget2", ok,
                  f"exhaustive={_fmt(ex.objective)} extensive={_fmt(res.objective)} "
                  f"heuristic={_fmt(h.objective)}"))
    _emit(items)


def test_criterion_6_structural_risk_lower_bound():
    """Every feasible solve recorded by criteria 3-5 dominates its structural
    risk, with equality whenever no branch was opened."""
    assert _FEASIBLE_SOLVES, "criteria 3-5 must run first"
    items = []
    for label, obj, n_open, sr in _FEASIBLE_SOLVES:
        ok = obj >= sr - 1e-9
        if n_open == 0:
            ok = ok and abs(obj - sr) <= 1e-9
        items.append((f"6.{label}", ok,
                      f"objective={obj:.6g} sr={sr:.6g} openings={n_open}"))
    _emit(items)


def test_criterion_7_invariant_suite():
    items = []

    # connectivity certificate, both directions, full enumeration
    grid = six_bus_grid()
    ids = list(grid.branch_ids())
    bad = 0
    for bits in itertools.product([0, 1], repeat=len(ids)):
        closed = {e for e, bit in zip(ids, bits) if bit}
        model = build_base_case(grid, base_thermal=OMIT)
        model.fix_config(SwitchConfig(frozenset(set(ids) - closed)))
        model.backend.set_objective({}, "min")
        feasible = model.backend.solve().has_solution
        connected = len(bfs_energized(grid, closed, grid.reference_bus)) == grid.n_buses
        bad += feasible != connected
    items.append(("7.connectivity-certificate", bad == 0,
                  f"{2 ** len(ids)} states enumerated, {bad} mismatches"))

    # hop monotonicity and symmetry
    grid14 = load_grid("case14_ieee.m")
    mono = sym = True
    for e in grid14.branch_ids():
        prev = {e}
        for l in range(1, 6):
            cur = graph_ops.hop(grid14, e, l)
            mono &= prev <= cur
            prev = cur
    for e1 in grid14.branch_ids():
        for e2 in grid14.branch_ids():
            for l in (1, 2):
                sym &= ((e2 in graph_ops.hop(grid14, e1, l))
                        == (e1 in graph_ops.hop(grid14, e2, l)))
    items.append(("7.hop-monotone", mono, "hop(e,l) subset of hop(e,l+1)"))
    items.append(("7.hop-symmetric", sym, "pairwise over the 14-bus system"))

    # bridge detection equals remove-and-test
    from test_graph_ops import brute_force_bridges
    grid57 = load_grid("case57_ieee.m")
    rng = random.Random(5)
    ok = True
    closed_all = set(grid57.branch_ids())
    ok &= graph_ops.find_bridges(grid57, closed_all) == \
        brute_force_bridges(grid57, closed_all)
    for _ in range(10):
        closed = {e for e in closed_all if rng.random() < 0.85}
        ok &= graph_ops.find_bridges(grid57, closed) == \
            brute_force_bridges(grid57, closed)
    items.append(("7.bridges", ok, "lowlink equals remove-and-test"))

    # trip masking exactness by enumeration
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    ok = True
    for bits in itertools.product([0, 1], repeat=4):
        config = SwitchConfig(frozenset(e for e, b in zip(grid.branch_ids(), bits)
                                        if not b))
        for c in cons:
            masked = config.post_contingency_status(grid, c)
            base = config.base_status(grid)
            for e in grid.branch_ids():
                expect = False if e in c.tripped else base[e]
                ok &= masked[e] == expect
    items.append(("7.trip-masking", ok, "enumerated over all 16 toy states"))

    # simplification safety: reclosed solutions stay clean on the working set
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    working = [cons.by_id(1), cons.by_id(2)]
    out = milp_model.remove_unnecessary_openings(
        grid, SwitchConfig.with_open([3, 4]), working)
    rep = SecurityAnalyzer(grid, ContingencySet(cases=tuple(working))).analyze(out)
    items.append(("7.simplification-safety", rep.clean and out.open_branches <= {3, 4},
                  f"openings {sorted(out.open_branches)} remain clean"))

    _emit(items)


def test_criterion_8_security_analysis_performance(grid118):
    cons = n_minus_1_contingencies(grid118)
    analyzer = SecurityAnalyzer(grid118, cons)
    config = SwitchConfig.all_closed()
    analyzer.analyze(config)  # warm-up builds the factorization; no opening, no outage matrix
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        analyzer.analyze(config)
        best = min(best, time.perf_counter() - t0)
    _emit([("8.118-full-n-1", best < 0.1,
            f"warm analysis {1000 * best:.1f} ms (budget 100 ms)")])
