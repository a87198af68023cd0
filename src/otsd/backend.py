"""MILP backend contract and the scipy/HiGHS adapter.

The contract is the only seam to third-party solvers: variables with bounds,
binaries, linear constraints, a linear objective, bound fixing, and a
time-limited solve with status/value queries. The bundled adapter sits
on ``scipy.optimize.milp`` (HiGHS).

Variables and rows enter in blocks of numpy arrays: ``add_vars`` appends a
range of columns with their bounds, ``add_rows`` a block of rows in
coordinate (COO) form. The one-variable and one-row calls are the same path
with a block of one. Bound changes take one column or an array of columns,
and ``solution`` holds the value of every column.

Determinism: HiGHS runs single-threaded here and is deterministic for a fixed
model.
"""

from __future__ import annotations

import enum
import math

import numpy as np
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, milp


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


def _stacked(chunks: list[np.ndarray]) -> np.ndarray:
    """The chunks as one array, which then replaces them in the list."""
    if len(chunks) > 1:
        chunks[:] = [np.concatenate(chunks)]
    return chunks[0]


class ScipyHighsBackend:
    """Incremental model builder solved through scipy's HiGHS interface.

    Column bounds, integrality and the rows (COO triples with global row
    numbers, plus row bounds) are kept as lists of numpy chunks, one per
    block added. ``solve`` stacks each list into one array and hands HiGHS
    one CSC matrix with sorted indices, which keeps the builder re-entrant
    after row additions and bound changes.
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
        self._status = Status.ERROR
        self._x: np.ndarray | None = None
        self._objective_value: float | None = None

    # -- construction ------------------------------------------------------

    def add_vars(self, count: int, lb=-math.inf, ub=math.inf, binary: bool = False) -> range:
        """Append ``count`` columns; ``lb``/``ub`` are scalars or arrays of that length."""
        self._lb.append(np.full(count, lb, dtype=float))
        self._ub.append(np.full(count, ub, dtype=float))
        self._integrality.append(np.full(count, int(binary), dtype=np.int64))
        start = self._n_vars
        self._n_vars += count
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
        self._rows.append(rows + self._n_rows)
        self._cols.append(cols)
        self._vals.append(vals)
        self._row_lb.append(np.full(count, lb, dtype=float))
        self._row_ub.append(np.full(count, ub, dtype=float))
        start = self._n_rows
        self._n_rows += count
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

    def set_bounds(self, var: int | np.ndarray, lb, ub) -> None:
        """Bounds of column ``var``, or of an array of columns (scalars broadcast)."""
        _stacked(self._lb)[var] = lb
        _stacked(self._ub)[var] = ub

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

    def solve(self, time_limit: float | None = None) -> Status:
        n = self._n_vars
        c = np.zeros(n)
        if self._obj:
            c[list(self._obj)] = self._sense * np.array(list(self._obj.values()), dtype=float)
        integrality = _stacked(self._integrality)
        bounds = Bounds(_stacked(self._lb), _stacked(self._ub))

        constraints = []
        if self._n_rows:
            a = scipy.sparse.csc_array(
                (_stacked(self._vals), (_stacked(self._rows), _stacked(self._cols))),
                shape=(self._n_rows, n))
            constraints = [LinearConstraint(a, _stacked(self._row_lb), _stacked(self._row_ub))]

        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        res = milp(c=c, constraints=constraints, integrality=integrality,
                   bounds=bounds, options=options)

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
        self._x = None if res.x is None else np.asarray(res.x)
        self._objective_value = None
        if self._x is not None:
            self._objective_value = float(
                self._sense * (res.fun if res.fun is not None else c @ self._x)
                + self._obj_const)
        return self._status

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
