import functools
import itertools
import json
import random
import sys
import time

import numpy as np
import pytest

from otsd import graph_ops, heuristic, milp_model, n_minus_1_contingencies, oracle
from otsd.backend import ScipyHighsBackend, Status
from otsd.dc_engine import SecurityAnalyzer, SecurityReport, ViolationDetail
from otsd.errors import DisconnectedCase, EmptyReport
from otsd.grid import Branch, Bus, ContingencySet, Grid, SwitchConfig
from otsd.heuristic import (HeuristicParams, HeuristicState, expand_switchable, fewest_openings,
                            most_constraining)
from otsd.results import SolveStatus

from conftest import load_grid, pinch_grid, random_connected_config, toy_grid


def _report(details):
    return SecurityReport(violating_contingencies=details, total_objective=0.0)


def _detail(branches):
    return ViolationDetail(violated_branches=branches, loss_of_load=0.0,
                           de_energized=frozenset())


def test_most_constraining_single():
    rep = _report({5: _detail({1: 0.1})})
    assert most_constraining(rep) == 5


def test_most_constraining_argmax_count():
    rep = _report({1: _detail({1: 0.1, 2: 0.1, 3: 0.1}), 2: _detail({4: 9.0})})
    assert most_constraining(rep) == 1


def test_most_constraining_tiebreaks():
    # equal counts: larger total overload wins; full tie: lowest id
    rep = _report({3: _detail({1: 0.2}), 7: _detail({2: 0.5})})
    assert most_constraining(rep) == 7
    rep = _report({9: _detail({1: 0.5}), 4: _detail({2: 0.5})})
    assert most_constraining(rep) == 4
    # exhaustive comparison against a brute-force pick
    details = {1: _detail({1: 0.3, 2: 0.1}), 2: _detail({3: 0.2, 4: 0.2}),
               3: _detail({5: 0.5})}
    best = min(details.items(), key=lambda kv: (
        -len(kv[1].violated_branches),
        -sum(kv[1].violated_branches.values()), kv[0]))[0]
    assert most_constraining(_report(details)) == best


def test_most_constraining_ignores_base_and_empty():
    with pytest.raises(EmptyReport):
        most_constraining(_report({}))
    with pytest.raises(EmptyReport):
        most_constraining(_report({None: _detail({1: 0.1})}))


def test_expand_switchable_no_residual_is_noop():
    grid = toy_grid()
    state = HeuristicState()
    state.monitored[1] = {1}
    state.hop_counts[1] = 1
    verdict = expand_switchable(grid, state, HeuristicParams(), set(), {})
    assert verdict is None
    assert state.hop_counts == {1: 1}


def test_expand_switchable_new_branch_gets_nh0():
    grid = toy_grid()
    params = HeuristicParams(nh_0=1, nh_max=4)
    state = HeuristicState()
    state.monitored[2] = set()
    verdict = expand_switchable(grid, state, params, {2}, {2: {4}})
    assert verdict is None
    assert state.hop_counts[4] == params.nh_0
    assert set(state.switchable) >= heuristic.graph_ops.hop(grid, 4, params.nh_0)


def test_expand_switchable_increments_existing():
    grid = toy_grid()
    params = HeuristicParams(nh_0=1, nh_max=4)
    state = HeuristicState()
    state.monitored[2] = {4}
    state.hop_counts[4] = 1
    expand_switchable(grid, state, params, {2}, {})
    assert state.hop_counts[4] == 2


def test_expand_switchable_ceiling_reports_infeasible():
    grid = toy_grid()
    params = HeuristicParams(nh_0=1, nh_max=2)
    state = HeuristicState()
    state.monitored[2] = {4}
    state.hop_counts[4] = 2
    assert expand_switchable(grid, state, params, {2}, {}) == heuristic.INFEASIBLE


def test_solve_clean_case_single_log_entry():
    grid = toy_grid()
    # generous limits: nothing violates, answer is all-closed
    buses = list(grid.buses)
    branches = [Branch(e.id, e.origin, e.destination, e.susceptance, 10.0)
                for e in grid.branches]
    easy = Grid(buses, branches, reference_bus=1)
    cons = n_minus_1_contingencies(easy)
    res = heuristic.solve(easy, cons)
    assert res.status is SolveStatus.FEASIBLE
    assert res.openings == []
    assert len(res.iterations) == 1
    assert res.objective == pytest.approx(0.5)  # bridge trip sheds the tail load


def test_solve_toy_reaches_oracle_optimum():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)
    assert res.status is SolveStatus.FEASIBLE
    ex = oracle.exhaustive_otsd(grid, cons, max_openings=4)
    assert res.objective >= ex.objective - 1e-9
    assert res.objective == pytest.approx(ex.objective, abs=1e-6)


def test_solution_passes_fresh_security_analysis():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)
    fresh = SecurityAnalyzer(grid, cons).analyze(res.config)
    assert fresh.clean
    assert fresh.total_objective == pytest.approx(res.objective)


def test_infeasible_instance_detected_as_true_infeasible():
    # losing either pair branch overloads its sibling beyond repair and the
    # load bus can never be stranded; the line-graph diameter is 1 <= nh_max,
    # so the verdict is a true infeasibility
    from conftest import pinch_grid
    grid = pinch_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)
    assert res.status is SolveStatus.INFEASIBLE


def test_infeasible_within_horizon_when_hops_capped():
    # same instance with the hop budget pinned below the line-graph diameter
    from conftest import pinch_grid
    grid = pinch_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons, HeuristicParams(nh_0=0, nh_max=0))
    assert res.status is SolveStatus.INFEASIBLE_WITHIN_HORIZON


def test_limit_hit_subproblem_never_grows_hops():
    # the pinch instance needs hop growth; when every subproblem reports a
    # limit hit, its residual proves nothing and the run ends in TIMEOUT
    from conftest import pinch_grid

    class LimitHit(ScipyHighsBackend):
        def solve(self, time_limit=None):
            status = super().solve(time_limit)
            return Status.FEASIBLE if status is Status.OPTIMAL else status

    grid = pinch_grid()
    res = heuristic.solve(grid, n_minus_1_contingencies(grid), backend_factory=LimitHit)
    assert res.status is SolveStatus.TIMEOUT


def test_base_case_infeasible_detected():
    # base flow 1.0 over a 0.5 limit; the only branch cannot be opened
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0)]
    branches = [Branch(1, 1, 2, 10.0, 0.5)]
    grid = Grid(buses, branches, reference_bus=1)
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)
    assert res.status is SolveStatus.BASE_CASE_INFEASIBLE


def test_outer_iterations_add_one_contingency_each():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)
    # after the seeding analysis, the working set grows by exactly one per outer round
    sizes = [e["n_working"] for e in res.iterations if e["phase"] == "security_analysis"]
    assert len(sizes) >= 2
    assert all(b - a == 1 for a, b in zip(sizes[1:], sizes[2:]))


def test_reproducible_iteration_logs():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    first = heuristic.solve(grid, cons)
    second = heuristic.solve(grid, cons)
    strip = lambda its: [{k: v for k, v in it.items()} for it in its]
    assert strip(first.iterations) == strip(second.iterations)
    assert first.openings == second.openings
    assert first.objective == second.objective


def test_timeout_status():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons, HeuristicParams(time_limit=0.0))
    assert res.status is SolveStatus.TIMEOUT


def test_residual_overload_non_increasing_within_inner_loop():
    # growing the switchable set enlarges the feasible set, so the minimized
    # overload sum cannot rise while the working set is fixed
    from conftest import pinch_grid
    grid = pinch_grid()
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)  # runs the inner loop to the hop ceiling
    by_outer = {}
    for entry in res.iterations:
        if entry["phase"] == "reduce_violations":
            by_outer.setdefault(entry["outer"], []).append(entry["residual_overload"])
    assert by_outer, "expected at least one inner loop"
    for residuals in by_outer.values():
        assert all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))


def test_global_time_limit_caps_inner_solves():
    # 118@1.25 keeps the inner programs busy; with no per-solve limit set,
    # the global limit alone must stop them
    grid = load_grid("case118_ieee.m", tlf=1.25)
    cons = n_minus_1_contingencies(grid)
    t0 = time.monotonic()
    heuristic.solve(grid, cons, HeuristicParams(time_limit=5.0))
    assert time.monotonic() - t0 < 7.0


def _milp_fewest(grid, config, working):
    """``milp_model.remove_unnecessary_openings`` and the status of its program."""
    backends = []

    def factory():
        backends.append(ScipyHighsBackend())
        return backends[-1]

    out = milp_model.remove_unnecessary_openings(grid, config, working, backend_factory=factory)
    return out, backends[0].status


@functools.cache
def _random_working_sets():
    """(grid, contingencies, working set, switchable set, ``reduce_violations``
    result) on seeded random working sets: one or two cases the all-closed
    screen flags plus up to three others, switching within one or two hops
    of the branches the flagged cases overload."""
    out = []
    for name, tlf, seed in (("case14_ieee.m", 1.0, 1), ("case30_ieee.m", 1.0, 2),
                            ("case30_ieee.m", 0.9, 4), ("case57_ieee.m", 1.0, 3),
                            ("case57_ieee.m", 0.9, 5)):
        grid = load_grid(name, tlf=tlf)
        cons = n_minus_1_contingencies(grid)
        flagged = {cid: detail for cid, detail in SecurityAnalyzer(grid, cons).analyze(
            SwitchConfig.all_closed()).violating_contingencies.items() if cid is not None}
        rng = random.Random(seed)
        for _ in range(4):
            picked = rng.sample(sorted(flagged), min(len(flagged), rng.randint(1, 2)))
            others = rng.sample([c.id for c in cons if c.id not in flagged], rng.randint(0, 3))
            hops = rng.randint(1, 2)
            switchable = set()
            for cid in picked:
                for e in flagged[cid].violated_branches:
                    switchable |= graph_ops.hop(grid, e, hops)
            working = [cons.by_id(cid) for cid in sorted(picked + others)]
            out.append((grid, cons, working, frozenset(switchable),
                        milp_model.reduce_violations(grid, working, switchable)))
    return out


def _removal_inputs():
    """(grid, contingencies, plan, working set) inputs of the removal step.

    The toy inputs of the MILP's own tests, random connected 30-bus plans,
    and plans ``reduce_violations`` leaves with no residual on the seeded
    random working sets of ``_random_working_sets``.
    """
    toy = toy_grid()
    toy_cons = n_minus_1_contingencies(toy)
    yield toy, toy_cons, SwitchConfig.all_closed(), [toy_cons.by_id(4)]
    yield toy, toy_cons, SwitchConfig.with_open([3, 4]), [toy_cons.by_id(1), toy_cons.by_id(2)]
    grid30 = load_grid("case30_ieee.m")
    cons30 = n_minus_1_contingencies(grid30)
    rng = random.Random(23)
    for _ in range(3):
        config = random_connected_config(grid30, rng, max_open=4)
        yield grid30, cons30, config, [cons30.by_id(rng.choice(list(grid30.branch_ids())))]
    for grid, cons, working, _, rv in _random_working_sets():
        if rv.config is not None and not rv.residual:
            yield grid, cons, rv.config, working


def test_fewest_openings_matches_milp():
    checked = 0
    for grid, cons, config, working in _removal_inputs():
        plan, report, screens = fewest_openings(SecurityAnalyzer(grid, cons), config, working)
        assert plan.open_branches <= config.open_branches
        assert 1 <= screens <= 2 ** config.n_open
        fresh = SecurityAnalyzer(grid, ContingencySet(cases=tuple(working))).analyze(plan)
        assert fresh.clean
        assert report.total_objective == SecurityAnalyzer(grid, cons).analyze(plan).total_objective
        out, status = _milp_fewest(grid, config, working)
        if status is Status.OPTIMAL:
            assert plan.n_open == out.n_open, (grid.name, sorted(config.open_branches))
            checked += 1
    assert checked >= 20


def test_fewest_openings_holds_the_base_case_unnamed():
    # a stiff direct branch carries 0.8 of the transfer over its 0.7 limit,
    # so it must stay open although no contingency and no report names the base
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 0.0), Bus(3, 0.0, 1.0)]
    branches = [Branch(1, 1, 3, 20.0, 0.7), Branch(2, 1, 2, 10.0, 2.0),
                Branch(3, 2, 3, 10.0, 2.0)]
    grid = Grid(buses, branches, reference_bus=1)
    cons = n_minus_1_contingencies(grid, include_base_case=False)
    working = [cons.by_id(1)]  # secure with branch 1 open or closed
    analyzer = SecurityAnalyzer(grid, cons)
    all_closed = analyzer.analyze(SwitchConfig.all_closed())
    assert None not in all_closed.violating_contingencies
    assert 1 not in all_closed.violating_contingencies
    assert analyzer.contingency_state(SwitchConfig.all_closed(), None).flows[0] \
        == pytest.approx(0.8)
    opened = SwitchConfig.with_open([1])
    plan, _, screens = fewest_openings(analyzer, opened, working)
    assert plan == opened and screens == 2
    out, status = _milp_fewest(grid, opened, working)
    assert status is Status.OPTIMAL and out == opened


def test_fewest_openings_past_deadline_returns_its_input():
    grid = toy_grid()
    cons = n_minus_1_contingencies(grid)
    working = [cons.by_id(4)]  # secure on the all-closed grid
    config = SwitchConfig.with_open([3])
    analyzer = SecurityAnalyzer(grid, cons)
    assert fewest_openings(analyzer, config, working)[0] == SwitchConfig.all_closed()
    plan, report, _ = fewest_openings(analyzer, config, working, time.monotonic() - 1.0)
    assert plan == config
    assert report.total_objective == analyzer.analyze(config).total_objective


def test_fewest_openings_breaks_ties_on_lowest_ids():
    # 118@1.35: [32, 54] and [43, 54] are both clean at 2.99; the screen-
    # based removal keeps the lowest branch ids among its minimum plans
    grid = load_grid("case118_ieee.m", 1.35)
    cons = n_minus_1_contingencies(grid)
    first, second = heuristic.solve(grid, cons), heuristic.solve(grid, cons)
    assert first.status is SolveStatus.FEASIBLE and first.openings == [32, 54]
    document = lambda r: json.dumps([r.status.value, r.openings, r.objective, r.bound,
                                     r.loss_of_load, r.iterations], sort_keys=True)
    assert document(first) == document(second)
    simplify = [e for e in first.iterations if e["phase"] == "simplify"]
    assert simplify and simplify[-1]["openings_after"] == [32, 54]
    assert set(simplify[-1]["openings_after"]) <= set(simplify[-1]["openings_before"])


def _inner_inputs(monkeypatch, instances):
    """(grid, contingencies, working set, switchable set) of every inner
    iteration of ``heuristic.solve`` on the named instances: the inputs of
    its screen search, and of the overload program when that runs."""
    search = heuristic.first_secure_plan
    calls = []

    def recording(analyzer, candidates, largest, working, deadline=None):
        if sys._getframe(1).f_code is heuristic.solve.__code__:
            calls.append((analyzer.grid, analyzer.contingencies, list(working),
                          frozenset(candidates)))
        return search(analyzer, candidates, largest, working, deadline)

    monkeypatch.setattr(heuristic, "first_secure_plan", recording)
    for name, tlf in instances:
        grid = load_grid(name, tlf)
        heuristic.solve(grid, n_minus_1_contingencies(grid))
    monkeypatch.undo()
    return calls


def test_screen_search_is_exact_against_the_overload_program(monkeypatch):
    # a plan of at most two openings that clears the working cases is an
    # optimum of the overload program, and the fewest openings of any plan
    # the program leaves clean; when none exists, no clean plan has fewer
    # than three openings
    inputs = _inner_inputs(monkeypatch, [
        ("case14_ieee.m", 1.0), ("case57_ieee.m", 1.0), ("case57_ieee.m", 0.9),
        ("case24_ieee_rts.m", 0.9), ("case118_ieee.m", 1.35)])
    assert len(inputs) >= 8
    inputs += [(grid, cons, working, switchable)
               for grid, cons, working, switchable, _ in _random_working_sets()]
    found = missed = 0
    for grid, cons, working, switchable in inputs:
        analyzer = SecurityAnalyzer(grid, cons)
        plan, report, tried = heuristic.first_secure_plan(
            analyzer, switchable, heuristic.SCREENED_OPENINGS, working)
        rv = milp_model.reduce_violations(grid, working, switchable)
        if plan is not None:
            found += 1
            assert plan.n_open <= heuristic.SCREENED_OPENINGS
            assert plan.open_branches <= switchable
            assert rv.status is Status.OPTIMAL and not rv.residual, grid.name
            assert fewest_openings(analyzer, rv.config, working)[0].n_open >= plan.n_open
            assert report.total_objective == SecurityAnalyzer(grid, cons).analyze(
                plan).total_objective
        elif rv.config is not None and not rv.residual:
            missed += 1
            assert fewest_openings(analyzer, rv.config, working)[0].n_open >= 3, grid.name
    assert found >= 10 and missed >= 2


def _serial_search(analyzer, candidates, largest, working):
    """``first_secure_plan`` one plan at a time, with no filter: the
    base-case query, then the screen, on every plan in order."""
    ids = {c.id for c in working}
    tried = 0
    for size in range(min(largest, len(candidates)) + 1):
        for subset in itertools.combinations(sorted(candidates), size):
            tried += 1
            plan = SwitchConfig(frozenset(subset))
            try:
                base = analyzer.contingency_state(plan, None).flows
            except DisconnectedCase:
                continue
            if np.any(np.abs(base) - analyzer.grid.limit > analyzer.tolerance):
                continue
            report = analyzer.analyze(plan)
            if ids.isdisjoint(report.violating_contingencies):
                return plan, report, tried
    return None, None, tried


def test_batched_search_matches_serial_search(monkeypatch):
    # the filter only drops plans the screen would fail, so the batched
    # search returns the serial search's plan, screen and count of plans
    # tried: on every inner search of five instances, on the random working
    # sets, and in the removal step
    inputs = [(grid, cons, working, switchable, heuristic.SCREENED_OPENINGS)
              for grid, cons, working, switchable in _inner_inputs(monkeypatch, [
                  ("case14_ieee.m", 1.0), ("case57_ieee.m", 1.0), ("case57_ieee.m", 0.9),
                  ("case24_ieee_rts.m", 0.9), ("case118_ieee.m", 1.35)])]
    inputs += [(grid, cons, working, switchable, heuristic.SCREENED_OPENINGS)
               for grid, cons, working, switchable, _ in _random_working_sets()]
    found = 0
    for grid, cons, working, candidates, largest in inputs:
        plan, report, tried = heuristic.first_secure_plan(
            SecurityAnalyzer(grid, cons), candidates, largest, working)
        want, screen, serial = _serial_search(SecurityAnalyzer(grid, cons), candidates,
                                              largest, working)
        assert (plan, tried) == (want, serial), grid.name
        if want is not None:
            found += 1
            assert report.total_objective == screen.total_objective
    removals = 0
    for grid, cons, config, working in _removal_inputs():
        plan, report, tried = fewest_openings(SecurityAnalyzer(grid, cons), config, working)
        want, screen, serial = _serial_search(SecurityAnalyzer(grid, cons),
                                              config.open_branches, config.n_open, working)
        assert (plan, tried) == (want or config, serial), grid.name
        assert report.total_objective == (
            screen or SecurityAnalyzer(grid, cons).analyze(config)).total_objective
        removals += 1
    assert found >= 10 and len(inputs) - found >= 2 and removals >= 20


@pytest.mark.parametrize("name, tlf", [("case118_ieee.m", 1.35), ("case57_ieee.m", 1.0)])
def test_heuristic_screens_only_the_plans_the_filter_passes(monkeypatch, name, tlf):
    # one screen of the all-closed grid and one of the plan the search
    # returns: every plan before it fails the filter
    analyze, calls = SecurityAnalyzer.analyze, []

    def counting(self, config):
        calls.append(sorted(config.open_branches))
        return analyze(self, config)

    monkeypatch.setattr(SecurityAnalyzer, "analyze", counting)
    grid = load_grid(name, tlf)
    res = heuristic.solve(grid, n_minus_1_contingencies(grid))
    assert res.status is SolveStatus.FEASIBLE
    assert len(calls) <= 2 and calls[-1] == res.openings


def test_heuristic_never_raises_inside_analyze(monkeypatch):
    # the search skips a disconnecting plan on its base-case query, so a
    # screen only ever runs on a topology already built: a raising analyze
    # would leave a tracer's span without its note
    analyze, state = SecurityAnalyzer.analyze, SecurityAnalyzer.contingency_state
    raised, disconnected = [], []

    def guarded(self, config):
        try:
            return analyze(self, config)
        except Exception as exc:
            raised.append((sorted(config.open_branches), exc))
            raise

    def counting(self, config, contingency):
        try:
            return state(self, config, contingency)
        except DisconnectedCase:
            disconnected.append(sorted(config.open_branches))
            raise

    monkeypatch.setattr(SecurityAnalyzer, "analyze", guarded)
    monkeypatch.setattr(SecurityAnalyzer, "contingency_state", counting)
    for grid in (load_grid("case57_ieee.m", 0.9), pinch_grid()):
        res = heuristic.solve(grid, n_minus_1_contingencies(grid))
        assert res.status in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
        assert disconnected, grid.name
        disconnected.clear()
    assert raised == []


@pytest.mark.parametrize("name, tlf, openings", [
    ("case57_ieee.m", 1.2, [5]),
    ("case118_ieee.m", 1.4, [104]),
    ("case118_ieee.m", 1.35, [32, 54]),
    ("case57_ieee.m", 0.9, [6, 7, 22, 31]),
])
def test_heuristic_plans_are_byte_stable(name, tlf, openings):
    grid = load_grid(name, tlf)
    cons = n_minus_1_contingencies(grid)
    first, second = heuristic.solve(grid, cons), heuristic.solve(grid, cons)
    document = lambda r: json.dumps([r.status.value, r.openings, r.objective, r.bound,
                                     r.loss_of_load, r.iterations], sort_keys=True)
    assert document(first) == document(second)
    assert first.status is SolveStatus.FEASIBLE and first.openings == openings
    if (name, tlf) == ("case57_ieee.m", 1.2):
        # one opening meets the structural risk: provably optimal
        assert first.objective == first.bound


def test_iteration_log_names_each_screen_search():
    # 24@0.9: the first search finds nothing and the program leaves a
    # residual, so the hops grow; the second search finds [14], which ends
    # the inner loop with no second program and no removal screens
    grid = load_grid("case24_ieee_rts.m", 0.9)
    res = heuristic.solve(grid, n_minus_1_contingencies(grid))
    searches = [e for e in res.iterations if e["phase"] == "screen_search"]
    programs = {(e["outer"], e["inner"]) for e in res.iterations
                if e["phase"] == "reduce_violations"}
    assert [e["openings"] for e in searches] == [None, [14]]
    for e in searches:
        assert set(e) == {"phase", "outer", "inner", "n_working", "n_switchable",
                          "screens", "openings"}
        assert e["screens"] >= 1
        assert ((e["outer"], e["inner"]) in programs) == (e["openings"] is None)
    assert len(programs) == 1
    simplify = [e for e in res.iterations if e["phase"] == "simplify"]
    assert simplify == [{"phase": "simplify", "outer": 1, "openings_before": [14],
                         "openings_after": [14], "screens": 0}]
    analyses = [e for e in res.iterations if e["phase"] == "security_analysis"]
    assert all(set(e) == {"phase", "outer", "n_working", "n_switchable", "n_violating",
                          "openings", "objective"} for e in analyses)


def test_generation_behind_a_bridge_from_the_reference():
    # the reference bus and bus 2 carry 0.5 load each and are joined by two
    # parallel branches; the only generator sits on bus 3, behind the bridge
    # 2-3. Its trip leaves the reference's area with load and no generation,
    # which the screen prices as the loss of all load; the all-closed grid is
    # otherwise secure, so both solvers return it at objective 1.0
    buses = [Bus(1, 0.0, 0.5), Bus(2, 0.0, 0.5), Bus(3, 1.0, 0.0)]
    branches = [Branch(1, 1, 2, 10.0, 5.0), Branch(2, 1, 2, 10.0, 5.0),
                Branch(3, 2, 3, 10.0, 5.0)]
    grid = Grid(buses, branches, reference_bus=1, name="bridged-generator")
    cons = n_minus_1_contingencies(grid)
    res = heuristic.solve(grid, cons)
    assert res.status is SolveStatus.FEASIBLE and res.openings == []
    assert res.objective == pytest.approx(1.0)

    def no_program(*args, **kwargs):
        raise AssertionError("extensive program built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp_model, "build_base_case", no_program)
        ext = milp_model.solve_extensive(grid, cons)
    assert ext.status is SolveStatus.OPTIMAL and ext.openings == []
    assert ext.objective == pytest.approx(1.0) and ext.bound == pytest.approx(1.0)
