import math

import numpy as np
import pytest
from scipy.optimize._highspy._core import kHighsInf, kSolutionStatusInfeasible

from otsd import backend
from otsd.backend import HighsModelStatus, ScipyHighsBackend, Status

from conftest import record_highs_runs


def test_simple_lp():
    be = ScipyHighsBackend()
    x = be.add_var(0, 10)
    y = be.add_var(0, 10)
    be.add_constraint({x: 1, y: 2}, "<=", 4)
    be.set_objective({x: -1, y: -1})
    assert be.solve() is Status.OPTIMAL
    assert math.isclose(be.objective_value, -4.0, abs_tol=1e-9)
    assert math.isclose(be.value(x), 4.0, abs_tol=1e-9)


def test_binary_knapsack():
    be = ScipyHighsBackend()
    items = [(3, 4), (4, 5), (2, 3)]  # (weight, value)
    xs = [be.add_binary() for _ in range(3)]
    be.add_constraint({x: w for x, (w, _) in zip(xs, items)}, "<=", 6)
    be.set_objective({x: v for x, (_, v) in zip(xs, items)}, "max")
    assert be.solve() is Status.OPTIMAL
    assert math.isclose(be.objective_value, 8.0, abs_tol=1e-9)


def test_infeasible_detected():
    be = ScipyHighsBackend()
    x = be.add_var(0, 1)
    be.add_constraint({x: 1}, ">=", 2)
    assert be.solve() is Status.INFEASIBLE


def test_equality_and_senses():
    be = ScipyHighsBackend()
    x = be.add_var(-10, 10)
    y = be.add_var(-10, 10)
    be.add_constraint({x: 1, y: 1}, "==", 3)
    be.add_constraint({x: 1, y: -1}, ">=", 1)
    be.set_objective({x: 1}, "min")
    assert be.solve() is Status.OPTIMAL
    assert be.value(x) + be.value(y) == pytest.approx(3)
    assert be.value(x) - be.value(y) >= 1 - 1e-9


def test_objective_constant_applied():
    be = ScipyHighsBackend()
    x = be.add_var(0, 5)
    be.set_objective({x: 1}, "min", constant=7.0)
    be.solve()
    assert math.isclose(be.objective_value, 7.0, abs_tol=1e-9)


def test_fix_and_unfix_bounds():
    be = ScipyHighsBackend()
    x = be.add_binary()
    be.set_objective({x: 1}, "min")
    be.fix_var(x, 1.0)
    be.solve()
    assert be.value(x) == pytest.approx(1.0)
    be.unfix_var(x, 0.0, 1.0)
    be.solve()
    assert be.value(x) == pytest.approx(0.0)


def test_incremental_constraint_addition_reentrant():
    be = ScipyHighsBackend()
    x = be.add_var(0, 10)
    be.set_objective({x: -1})
    be.solve()
    assert be.value(x) == pytest.approx(10.0)
    be.add_constraint({x: 1}, "<=", 3)
    be.solve()
    assert be.value(x) == pytest.approx(3.0)


def test_deterministic_repeat_solves():
    def run():
        be = ScipyHighsBackend()
        xs = [be.add_binary() for _ in range(8)]
        for i in range(0, 8, 2):
            be.add_constraint({xs[i]: 1, xs[i + 1]: 1}, "<=", 1)
        be.set_objective({x: (i % 3) + 1 for i, x in enumerate(xs)}, "max")
        be.solve()
        return [be.value(x) for x in xs], be.objective_value

    first = run()
    for _ in range(3):
        assert run() == first


def _recorded_model(monkeypatch, be):
    """Solve ``be`` and return the arrays HiGHS ran it on."""
    with monkeypatch.context() as patch:
        programs = record_highs_runs(patch)
        status = be.solve()
    (program,) = programs
    return status, be.objective_value, {**program, "A": program["A"].toarray()}


def test_bulk_rows_match_one_at_a_time(monkeypatch):
    rows = [({0: 1, 1: 1, 3: -3}, "<=", 2), ({1: 1, 2: -1}, ">=", -1),
            ({0: 1, 2: 1, 4: 2}, "==", 5)]

    def build(bulk: bool):
        be = ScipyHighsBackend()
        assert be.add_vars(3, 0.0, [4.0, 5.0, 6.0]) == range(0, 3)
        assert be.add_vars(2, 0.0, 1.0, binary=True) == range(3, 5)
        if bulk:
            be.add_rows([0, 0, 0, 1, 1, 2, 2, 2], [0, 1, 3, 1, 2, 0, 2, 4],
                        [1, 1, -3, 1, -1, 1, 1, 2], [-math.inf, -1, 5], [2, math.inf, 5])
        else:
            for coeffs, sense, rhs in rows:
                be.add_constraint(coeffs, sense, rhs)
        be.set_objective({0: -1, 1: -2, 2: -1, 3: 1, 4: 1})
        return _recorded_model(monkeypatch, be)

    bulk, single = build(True), build(False)
    assert bulk[:2] == single[:2]
    assert bulk[0] is Status.OPTIMAL
    for key, arr in single[2].items():
        np.testing.assert_array_equal(bulk[2][key], arr, err_msg=key)


def test_bulk_additions_after_solve_reentrant():
    be = ScipyHighsBackend()
    x = be.add_vars(2, 0.0, 10.0)
    be.set_objective({x[0]: -1, x[1]: -1})
    assert be.solve() is Status.OPTIMAL
    assert be.objective_value == pytest.approx(-20.0)
    be.add_rows([0, 0, 1], [x[0], x[1], x[1]], [1, 1, 1], -math.inf, [8, 3])
    be.solve()
    assert be.objective_value == pytest.approx(-8.0)
    assert be.value(x[1]) <= 3 + 1e-9
    (y,) = be.add_vars(1, 0.0, 1.0, binary=True)
    be.add_rows([0, 0], [x[0], y], [1, -5], -math.inf, 0.0)  # x0 <= 5 y
    be.set_objective({x[0]: -1, x[1]: -1, y: 1})
    be.solve()
    assert be.objective_value == pytest.approx(-7.0)
    be.fix_var(y, 0.0)
    be.solve()
    assert be.objective_value == pytest.approx(-3.0)
    assert be.n_vars == 3 and be.n_constraints == 3


def test_add_rows_rejects_out_of_range_entries():
    be = ScipyHighsBackend()
    x = be.add_var(0, 1)
    with pytest.raises(ValueError):
        be.add_rows([0, 1], [x, x], [1, 1], -math.inf, 0.0)  # one bound, two rows
    with pytest.raises(ValueError):
        be.add_rows([0], [x + 1], [1], -math.inf, 0.0)  # no such column
    be.add_rows([0], [x], [1], -math.inf, 1.0)
    with pytest.raises(ValueError):
        be.set_row_bounds([0, 1], -math.inf, 2.0)  # no row 1
    with pytest.raises(ValueError):
        be.set_row_bounds(-1, -math.inf, 2.0)


def test_live_lp_resolves_match_fresh_backends():
    """A program whose binaries are all fixed re-solves on one live HiGHS
    model after every change, and each re-solve equals a fresh backend's
    solve of the changed program."""
    def base(be):
        be.add_vars(3, 0.0, 10.0)
        (y,) = be.add_vars(1, 0.0, 1.0, binary=True)
        be.fix_var(y, 1.0)
        be.add_rows([0, 0, 0, 1, 1, 2, 2], [0, 1, 2, 0, 2, 0, y], [1, 1, 1, 1, -1, 1, -8],
                    -math.inf, [12.0, 2.0, 0.0])  # ..., x0 <= 8 y
        be.set_objective({0: -3, 1: -2.2, 2: -1.3})

    def add_column(be):
        (z,) = be.add_vars(1, 0.0, 2.0)
        be.add_rows([0, 0], [1, z], [1, 1], -math.inf, 3.0)
        be.set_objective({0: -3, 1: -2.2, 2: -1.3, z: -4})

    steps = [base,
             lambda be: be.set_bounds(np.array([0, 1]), 0.0, [5.0, 4.0]),
             lambda be: be.set_row_bounds(0, -math.inf, 7.0),
             lambda be: be.add_rows([0, 0], [1, 2], [1.0, 2.0], 5.0, math.inf),
             add_column,
             lambda be: be.set_row_bounds([1, 3], -math.inf, math.inf)]
    live = ScipyHighsBackend()
    for i, step in enumerate(steps):
        step(live)
        fresh = ScipyHighsBackend()
        for earlier in steps[:i + 1]:
            earlier(fresh)
        assert live.solve() is fresh.solve() is Status.OPTIMAL
        if i == 0:
            model = live._model
        assert live._model is model  # changed in place, never rebuilt
        assert live.objective_value == pytest.approx(fresh.objective_value, abs=1e-9)
        np.testing.assert_allclose(live.solution, fresh.solution, atol=1e-9)


@pytest.mark.parametrize("stall", ["no verdict", "infeasible optimum"])
def test_live_lp_stalled_resolve_runs_again_cold(monkeypatch, stall):
    """A re-solve from the last basis that ends with no verdict, or with an
    optimum HiGHS finds primal infeasible, is run once more from no basis."""
    events = []
    stalled = ["run", "run"]  # the second run is the first re-solve

    class Stalling(backend._Highs):
        def run(self):
            events.append("run")
            return super().run()

        def clearSolver(self):
            events.append("clear")
            return super().clearSolver()

        def getModelStatus(self):
            status = super().getModelStatus()
            return HighsModelStatus.kUnknown \
                if stall == "no verdict" and events == stalled else status

        def getInfo(self):
            info = super().getInfo()
            if stall == "infeasible optimum" and events == stalled:
                info.primal_solution_status = kSolutionStatusInfeasible
            return info

    monkeypatch.setattr(backend, "_Highs", Stalling)
    be = ScipyHighsBackend()
    x = be.add_vars(2, 0.0, 10.0)
    be.add_rows([0, 0], [x[0], x[1]], [1, 2], -math.inf, 4.0)
    be.set_objective({x[0]: -1, x[1]: -1})
    assert be.solve() is Status.OPTIMAL
    be.set_row_bounds(0, -math.inf, 6.0)
    assert be.solve() is Status.OPTIMAL
    assert events == ["run", "run", "clear", "run"]
    assert be.objective_value == pytest.approx(-6.0)


def _knapsack() -> ScipyHighsBackend:
    be = ScipyHighsBackend()
    items = [(3, 4), (4, 5), (2, 3)]  # (weight, value)
    xs = be.add_vars(3, 0.0, 1.0, binary=True)
    be.add_rows([0, 0, 0], xs, [w for w, _ in items], -math.inf, 6.0)
    be.set_objective({x: v for x, (_, v) in zip(xs, items)}, "max")
    return be


@pytest.mark.parametrize("incumbent", [True, False])
def test_limit_hit_statuses(monkeypatch, incumbent):
    """A MIP that hits a limit holding an incumbent is FEASIBLE with it, and
    TIMEOUT without one; an LP that hits a limit is TIMEOUT either way."""
    class Limited(backend._Highs):
        def getModelStatus(self):
            super().getModelStatus()
            return HighsModelStatus.kTimeLimit

        def getInfo(self):
            info = super().getInfo()
            if not incumbent:
                info.objective_function_value = kHighsInf
            return info

    monkeypatch.setattr(backend, "_Highs", Limited)
    mip = _knapsack()
    if incumbent:
        assert mip.solve() is Status.FEASIBLE
        assert mip.objective_value == pytest.approx(8.0)
        assert mip.solution.tolist() == pytest.approx([0.0, 1.0, 1.0])
    else:
        assert mip.solve() is Status.TIMEOUT
        assert mip.objective_value is None
        with pytest.raises(RuntimeError):
            mip.solution
    lp = ScipyHighsBackend()
    x = lp.add_var(0, 10)
    lp.set_objective({x: -1})
    assert lp.solve() is Status.TIMEOUT
    with pytest.raises(RuntimeError):
        lp.solution


def test_mip_solves_start_cleared_lp_resolves_warm(monkeypatch):
    """Every MIP solve after the first runs from a cleared solver, as on a
    new model; a program whose binaries are all fixed re-solves from the
    last basis, with no clear."""
    events = []

    class Counting(backend._Highs):
        def run(self):
            events.append("run")
            return super().run()

        def clearSolver(self):
            events.append("clear")
            return super().clearSolver()

    monkeypatch.setattr(backend, "_Highs", Counting)
    be = _knapsack()
    assert be.solve() is be.solve() is Status.OPTIMAL
    assert events == ["run", "clear", "run"]
    be.fix_var(np.arange(3), [0.0, 1.0, 1.0])
    assert be.solve() is Status.OPTIMAL
    be.fix_var(0, 1.0)  # over the weight limit
    assert be.solve() is Status.INFEASIBLE
    assert events == ["run", "clear", "run", "run", "run"]


def test_binary_added_to_a_live_model_is_integral():
    """A binary added after the first solve is an integer column of the live model."""
    be = ScipyHighsBackend()
    x = be.add_var(0.0, 1.25)
    be.set_objective({x: 1}, "max")
    assert be.solve() is Status.OPTIMAL
    (y,) = be.add_vars(1, 0.0, 1.0, binary=True)
    be.add_rows([0, 0], [x, y], [1, -2.5], -math.inf, 0.0)  # x <= 2.5 y
    be.set_objective({x: 1, y: -2}, "max")  # the relaxation takes y = 0.5
    assert be.solve() is Status.OPTIMAL
    assert be.objective_value == pytest.approx(0.0)
    assert be.value(y) == pytest.approx(0.0)
