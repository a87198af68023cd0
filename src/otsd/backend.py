"""MILP backend contract and the scipy/HiGHS adapter.

The contract is the only seam to third-party solvers: variables with bounds,
binaries, linear constraints, a linear objective, column and row bound
changes, and a time-limited solve with status/value queries. The bundled
adapter keeps each program as one live HiGHS model (the ``_Highs`` class
scipy ships). The model is created at the first solve from the stacked
arrays, integrality included, and every later change is applied to it in
place (``addVars`` with ``changeColsIntegrality`` for new binaries,
``addRows``, ``changeColsBounds``, ``changeColsCost``, ``changeRowBounds``).
Each solve picks how HiGHS runs it:

- a program with a free binary runs as a MIP from a cleared solver, so every
  MIP solve starts with no basis and no incumbent, as on a new model;
- a program whose binaries are all fixed (``lb == ub``) runs as its LP
  relaxation (``solve_relaxation``) and re-solves from the previous basis; a
  re-solve that ends with no verdict, or with an optimum HiGHS finds primal
  infeasible, is run once more from no basis.

Statuses map as ``scipy.optimize.milp`` maps them: a MIP that hits a limit
holding an incumbent is FEASIBLE, while an LP carries a solution only when
optimal.

Variables and rows enter in blocks of numpy arrays: ``add_vars`` appends a
range of columns with their bounds, ``add_rows`` a block of rows in
coordinate (COO) form. The one-variable and one-row calls are the same path
with a block of one. Bound changes take one column (row) or an array of
them, and ``solution`` holds the value of every column.

Determinism: HiGHS runs single-threaded here and is deterministic for a fixed
model and a fixed sequence of changes.
"""

from __future__ import annotations

import enum
import math

import numpy as np
import scipy.sparse
# nothing here calls milp; perfbench/tracer.py wraps this name
from scipy.optimize import milp  # noqa: F401
# HiGHS bindings that scipy.optimize itself loads for milp and linprog
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus, MatrixFormat,
                                           _Highs, kHighsInf, kSolutionStatusFeasible)


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


# as scipy.optimize.milp maps HiGHS model statuses; a limit hit is a timeout
# unless a MIP holds an incumbent (``_run``), and anything unlisted is an error
_STATUS = {
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
    """Incremental model builder solved on one live HiGHS model.

    Column bounds, integrality and the rows (COO triples with global row
    numbers, plus row bounds) are kept as lists of numpy chunks, one per
    block added, and stay the build buffer: the first solve stacks each list
    into one array and hands HiGHS one CSC matrix with sorted indices. From
    then on every change is applied to the live model as well as to the
    arrays, which rebuild the model if HiGHS ever refuses a change.
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
        self._model: _Highs | None = None  # the live model, from the first solve on
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
        if self._model is not None:
            self._applied(self._model.addVars(count, lb, ub))
        if binary and self._model is not None:
            self._applied(self._model.changeColsIntegrality(
                count, np.arange(start, self._n_vars), np.ones(count, dtype=np.uint8)))
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
        if self._model is not None:
            a = scipy.sparse.csr_array((vals, (rows, cols)), shape=(count, self._n_vars))
            self._applied(self._model.addRows(count, row_lb, row_ub, a.nnz, a.indptr[:-1],
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
        if self._model is not None:
            c = self._cost()
            self._applied(self._model.changeColsCost(c.size, np.arange(c.size), c))

    def set_bounds(self, var: int | np.ndarray, lb, ub) -> None:
        """Bounds of column ``var``, or of an array of columns (scalars broadcast)."""
        col_lb, col_ub = _stacked(self._lb), _stacked(self._ub)
        col_lb[var] = lb
        col_ub[var] = ub
        if self._model is not None:
            cols = np.atleast_1d(var)
            self._applied(self._model.changeColsBounds(cols.size, cols, col_lb[cols],
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
        if self._model is not None:
            for r in rows.tolist():
                self._applied(self._model.changeRowBounds(r, row_lb[r], row_ub[r]))

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
        """Drop the live model when HiGHS refuses a change to it; the next
        solve rebuilds it from the arrays."""
        if status == HighsStatus.kError:
            self._model = None

    def solve(self, time_limit: float | None = None) -> Status:
        """Solve on the live model: as a MIP from a cleared solver while a
        binary is free, else as its LP relaxation (fixed binaries are columns
        with equal bounds) from the last basis."""
        integer = _stacked(self._integrality) == 1
        mip = not np.array_equal(_stacked(self._lb)[integer], _stacked(self._ub)[integer])
        self._x = self._objective_value = None
        warm = self._model is not None
        if not warm:
            self._model = self._new_model()
            if self._model is None:  # as milp reports a model HiGHS fails to load
                self._status = Status.INFEASIBLE
                return self._status
        model = self._model
        model.setOptionValue("solve_relaxation", not mip)
        model.setOptionValue("time_limit", math.inf if time_limit is None else float(time_limit))
        if warm and mip:
            model.clearSolver()  # no basis and no start: each MIP runs as on a new model
        ran = self._run(mip)
        if warm and not mip and (self._status is Status.ERROR or (
                self._status is Status.OPTIMAL
                and model.getInfo().primal_solution_status != kSolutionStatusFeasible)):
            # from the last basis a re-solve of these big-M programs can stop
            # with no verdict, or with an optimum HiGHS itself finds primal
            # infeasible (residuals of 3e-6 to 9e-5 on a 118-bus security
            # program, flows off by 2e-6); run it once more from no basis, as
            # milp runs every program
            model.clearSolver()
            ran = self._run(mip)
        if ran and self._status.has_solution:
            self._x = np.array(model.getSolution().col_value)
            self._objective_value = float(
                self._sense * model.getInfo().objective_function_value + self._obj_const)
        return self._status

    def _run(self, mip: bool) -> bool:
        """Run the live model and take its status; False when HiGHS reports
        an error. A MIP that hits a limit holding an incumbent is FEASIBLE."""
        ran = self._model.run() != HighsStatus.kError
        self._status = _STATUS.get(self._model.getModelStatus(), Status.ERROR)
        if (mip and self._status is Status.TIMEOUT
                and self._model.getInfo().objective_function_value != kHighsInf):
            self._status = Status.FEASIBLE
        return ran

    def _new_model(self) -> _Highs | None:
        """A HiGHS model of the stacked arrays; None when HiGHS refuses it."""
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
        # integrality in one array call: a list of one HighsVarType per column
        # on the HighsLp costs milliseconds on the larger programs
        binary = np.flatnonzero(_stacked(self._integrality))
        if binary.size and highs.changeColsIntegrality(
                binary.size, binary, np.ones(binary.size, dtype=np.uint8)) == HighsStatus.kError:
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
