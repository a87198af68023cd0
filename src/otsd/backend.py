"""MILP backend contract and the scipy/HiGHS adapter.

The contract is the only seam to third-party solvers: variables with bounds,
binaries, linear constraints, a linear objective, column and row bound
changes, and a time-limited solve with status/value queries. The bundled
adapter runs HiGHS as scipy ships it, on two paths chosen per solve:

- a program with a free binary is a MIP and goes through
  ``scipy.optimize.milp``, rebuilt from the stacked arrays at every solve;
- a program whose binaries are all fixed (``lb == ub``) is an LP. It runs on
  one live HiGHS model, created at the first such solve and changed in place
  after it (``addVars``, ``addRows``, ``changeColsBounds``,
  ``changeColsCost``, ``changeRowBounds``), so every later LP re-solve
  starts from the previous basis (a re-solve that ends with no verdict, or
  with an optimum HiGHS finds primal infeasible, is run once more from no
  basis). Its statuses map as ``milp`` maps them for a program without
  integer columns.

Variables and rows enter in blocks of numpy arrays: ``add_vars`` appends a
range of columns with their bounds, ``add_rows`` a block of rows in
coordinate (COO) form. The one-variable and one-row calls are the same path
with a block of one. Bound changes take one column (row) or an array of
them, and ``solution`` holds the value of every column.

Determinism: HiGHS runs single-threaded here and is deterministic for a fixed
model and, on the LP path, a fixed sequence of changes.
"""

from __future__ import annotations

import enum
import math

import numpy as np
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, milp
# HiGHS bindings that scipy.optimize itself loads for milp and linprog
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus,
                                           MatrixFormat, _Highs, kSolutionStatusFeasible)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found but limit reached
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"  # limit reached with no incumbent
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (Status.OPTIMAL, Status.FEASIBLE)


# as scipy.optimize.milp maps HiGHS model statuses for a program without
# integer columns: only an optimal LP carries a solution, so a limit hit is a
# timeout; anything unlisted is an error
_LP_STATUS = {
    HighsModelStatus.kOptimal: Status.OPTIMAL,
    HighsModelStatus.kTimeLimit: Status.TIMEOUT,
    HighsModelStatus.kIterationLimit: Status.TIMEOUT,
    HighsModelStatus.kInfeasible: Status.INFEASIBLE,
    HighsModelStatus.kModelError: Status.INFEASIBLE,
    HighsModelStatus.kUnbounded: Status.UNBOUNDED,
}


def _stacked(chunks: list[np.ndarray]) -> np.ndarray:
    """The chunks as one array, which then replaces them in the list."""
    if len(chunks) > 1:
        chunks[:] = [np.concatenate(chunks)]
    return chunks[0]


class ScipyHighsBackend:
    """Incremental model builder solved through scipy's HiGHS.

    Column bounds, integrality and the rows (COO triples with global row
    numbers, plus row bounds) are kept as lists of numpy chunks, one per
    block added. A MIP solve stacks each list into one array and hands
    ``milp`` one CSC matrix with sorted indices, which keeps the builder
    re-entrant after row additions and bound changes. Once the live LP
    exists, every change is applied to it as well.
    """

    def __init__(self):
        self._lb = [np.empty(0)]
        self._ub = [np.empty(0)]
        self._integrality = [np.empty(0, dtype=np.int64)]
        self._rows = [np.empty(0, dtype=np.int64)]
        self._cols = [np.empty(0, dtype=np.int64)]
        self._vals = [np.empty(0)]
        self._row_lb = [np.empty(0)]
        self._row_ub = [np.empty(0)]
        self._n_vars = 0
        self._n_rows = 0
        self._obj: dict[int, float] = {}
        self._obj_const = 0.0
        self._sense = 1.0  # +1 minimize, -1 maximize
        self._lp: _Highs | None = None  # the live LP, from the first LP solve on
        self._status = Status.ERROR
        self._x: np.ndarray | None = None
        self._objective_value: float | None = None

    # -- construction ------------------------------------------------------

    def add_vars(self, count: int, lb=-math.inf, ub=math.inf, binary: bool = False) -> range:
        """Append ``count`` columns; ``lb``/``ub`` are scalars or arrays of that length."""
        lb, ub = np.full(count, lb, dtype=float), np.full(count, ub, dtype=float)
        self._lb.append(lb)
        self._ub.append(ub)
        self._integrality.append(np.full(count, int(binary), dtype=np.int64))
        start = self._n_vars
        self._n_vars += count
        if self._lp is not None:
            self._applied(self._lp.addVars(count, lb, ub))
        return range(start, self._n_vars)

    def add_rows(self, rows, cols, vals, lb, ub) -> range:
        """Append a block of rows given as COO triples with block-local row numbers.

        ``lb`` and ``ub`` broadcast against each other to one bound per row,
        and two scalars make one row. Entries repeated at one (row, column)
        are summed.
        """
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=float)
        (count,) = np.broadcast_shapes(np.shape(lb), np.shape(ub), (1,))
        if not rows.shape == cols.shape == vals.shape == (rows.size,):
            raise ValueError("rows, cols and vals must be 1-d and of one length")
        if rows.size and (rows.min() < 0 or rows.max() >= count):
            raise ValueError(f"row numbers must lie in [0, {count})")
        if cols.size and (cols.min() < 0 or cols.max() >= self._n_vars):
            raise ValueError(f"column numbers must lie in [0, {self._n_vars})")
        row_lb, row_ub = np.full(count, lb, dtype=float), np.full(count, ub, dtype=float)
        self._rows.append(rows + self._n_rows)
        self._cols.append(cols)
        self._vals.append(vals)
        self._row_lb.append(row_lb)
        self._row_ub.append(row_ub)
        start = self._n_rows
        self._n_rows += count
        if self._lp is not None:
            a = scipy.sparse.csr_array((vals, (rows, cols)), shape=(count, self._n_vars))
            self._applied(self._lp.addRows(count, row_lb, row_ub, a.nnz, a.indptr[:-1],
                                           a.indices, a.data))
        return range(start, self._n_rows)

    def add_var(self, lb: float = -math.inf, ub: float = math.inf) -> int:
        return self.add_vars(1, lb, ub)[0]

    def add_binary(self) -> int:
        return self.add_vars(1, 0.0, 1.0, binary=True)[0]

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        if sense == "<=":
            lb, ub = -math.inf, rhs
        elif sense == ">=":
            lb, ub = rhs, math.inf
        elif sense == "==":
            lb, ub = rhs, rhs
        else:
            raise ValueError(f"unknown sense {sense!r}")
        return self.add_rows([0] * len(coeffs), list(coeffs), list(coeffs.values()), lb, ub)[0]

    def set_objective(self, coeffs: dict[int, float], sense: str = "min",
                      constant: float = 0.0) -> None:
        self._obj = dict(coeffs)
        self._obj_const = constant
        self._sense = 1.0 if sense == "min" else -1.0
        if self._lp is not None:
            c = self._cost()
            self._applied(self._lp.changeColsCost(c.size, np.arange(c.size), c))

    def set_bounds(self, var: int | np.ndarray, lb, ub) -> None:
        """Bounds of column ``var``, or of an array of columns (scalars broadcast)."""
        col_lb, col_ub = _stacked(self._lb), _stacked(self._ub)
        col_lb[var] = lb
        col_ub[var] = ub
        if self._lp is not None:
            cols = np.atleast_1d(var)
            self._applied(self._lp.changeColsBounds(cols.size, cols, col_lb[cols],
                                                    col_ub[cols]))

    def set_row_bounds(self, rows: int | np.ndarray, lb, ub) -> None:
        """Bounds of row ``rows``, or of an array of rows (scalars broadcast);
        a row that does not exist is rejected."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if rows.size and (rows.min() < 0 or rows.max() >= self._n_rows):
            raise ValueError(f"row numbers must lie in [0, {self._n_rows})")
        row_lb, row_ub = _stacked(self._row_lb), _stacked(self._row_ub)
        row_lb[rows] = lb
        row_ub[rows] = ub
        if self._lp is not None:
            for r in rows.tolist():
                self._applied(self._lp.changeRowBounds(r, row_lb[r], row_ub[r]))

    def fix_var(self, var: int | np.ndarray, value) -> None:
        self.set_bounds(var, value, value)

    def unfix_var(self, var: int, lb: float, ub: float) -> None:
        self.set_bounds(var, lb, ub)

    @property
    def n_vars(self) -> int:
        return self._n_vars

    @property
    def n_constraints(self) -> int:
        return self._n_rows

    # -- solving -----------------------------------------------------------

    def _cost(self) -> np.ndarray:
        c = np.zeros(self._n_vars)
        if self._obj:
            c[list(self._obj)] = self._sense * np.array(list(self._obj.values()), dtype=float)
        return c

    def _matrix(self) -> scipy.sparse.csc_array:
        return scipy.sparse.csc_array(
            (_stacked(self._vals), (_stacked(self._rows), _stacked(self._cols))),
            shape=(self._n_rows, self._n_vars))

    def _applied(self, status: HighsStatus) -> None:
        """Drop the live LP when HiGHS refuses a change to it; the next LP
        solve rebuilds it from the arrays."""
        if status == HighsStatus.kError:
            self._lp = None

    def solve(self, time_limit: float | None = None) -> Status:
        integer = _stacked(self._integrality) == 1
        if np.array_equal(_stacked(self._lb)[integer], _stacked(self._ub)[integer]):
            x, fun = self._solve_lp(time_limit)
        else:
            x, fun = self._solve_mip(time_limit)
        self._x = x
        self._objective_value = None
        if x is not None:
            self._objective_value = float(self._sense * fun + self._obj_const)
        return self._status

    def _solve_mip(self, time_limit: float | None):
        c = self._cost()
        constraints = []
        if self._n_rows:
            constraints = [LinearConstraint(self._matrix(), _stacked(self._row_lb),
                                            _stacked(self._row_ub))]
        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        res = milp(c=c, constraints=constraints, integrality=_stacked(self._integrality),
                   bounds=Bounds(_stacked(self._lb), _stacked(self._ub)), options=options)

        if res.status == 0:
            self._status = Status.OPTIMAL
        elif res.status == 1:
            self._status = Status.FEASIBLE if res.x is not None else Status.TIMEOUT
        elif res.status == 2:
            self._status = Status.INFEASIBLE
        elif res.status == 3:
            self._status = Status.UNBOUNDED
        else:
            self._status = Status.ERROR
        if res.x is None:
            return None, None
        x = np.asarray(res.x)
        return x, res.fun if res.fun is not None else c @ x

    def _solve_lp(self, time_limit: float | None):
        """Solve on the live LP with no integer columns (fixed binaries are
        continuous columns with equal bounds), starting from its last basis."""
        warm = self._lp is not None
        if not warm:
            self._lp = self._new_lp()
            if self._lp is None:  # as milp reports a model HiGHS fails to load
                self._status = Status.INFEASIBLE
                return None, None
        lp = self._lp
        lp.setOptionValue("time_limit", math.inf if time_limit is None else float(time_limit))
        ran = self._run_lp()
        if warm and (self._status is Status.ERROR or (
                self._status is Status.OPTIMAL
                and lp.getInfo().primal_solution_status != kSolutionStatusFeasible)):
            # from the last basis a re-solve of these big-M programs can stop
            # with no verdict, or with an optimum HiGHS itself finds primal
            # infeasible (residuals of 3e-6 to 9e-5 on a 118-bus security
            # program, flows off by 2e-6); run it once more from no basis, as
            # milp runs every program
            lp.clearSolver()
            ran = self._run_lp()
        if not ran or self._status is not Status.OPTIMAL:
            return None, None
        return np.array(lp.getSolution().col_value), lp.getInfo().objective_function_value

    def _run_lp(self) -> bool:
        """Run the live LP and take its status; False when HiGHS reports an error."""
        ran = self._lp.run() != HighsStatus.kError
        self._status = _LP_STATUS.get(self._lp.getModelStatus(), Status.ERROR)
        return ran

    def _new_lp(self) -> _Highs | None:
        """A HiGHS model of the stacked arrays, integrality left out; None
        when HiGHS refuses it."""
        a = self._matrix()
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = self._n_vars, self._n_rows
        lp.col_cost_ = self._cost()
        lp.col_lower_, lp.col_upper_ = _stacked(self._lb), _stacked(self._ub)
        lp.row_lower_, lp.row_upper_ = _stacked(self._row_lb), _stacked(self._row_ub)
        m = lp.a_matrix_
        m.format_ = MatrixFormat.kColwise
        m.num_col_, m.num_row_ = self._n_vars, self._n_rows
        m.start_, m.index_, m.value_ = a.indptr, a.indices, a.data
        highs = _Highs()
        highs.setOptionValue("log_to_console", False)
        if highs.passModel(lp) == HighsStatus.kError:
            return None
        return highs

    # -- queries -----------------------------------------------------------

    @property
    def status(self) -> Status:
        return self._status

    @property
    def objective_value(self) -> float | None:
        return self._objective_value

    @property
    def solution(self) -> np.ndarray:
        """Value of every column in the last solution."""
        if self._x is None:
            raise RuntimeError("no solution available")
        return self._x

    def value(self, var: int) -> float:
        return float(self.solution[var])
