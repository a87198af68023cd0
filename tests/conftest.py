import os

import numpy as np
import pytest
import scipy.sparse

from otsd import backend, build_grid, load_case
from otsd.grid import Branch, Bus, Grid

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def case_path(name: str) -> str:
    return os.path.join(DATA, name)


def load_grid(name: str, tlf: float = 1.0):
    return build_grid(load_case(case_path(name)), tlf=tlf)


@pytest.fixture(scope="session")
def grid14():
    return load_grid("case14_ieee.m")


@pytest.fixture(scope="session")
def grid24():
    return load_grid("case24_ieee_rts.m")


@pytest.fixture(scope="session")
def grid30():
    return load_grid("case30_ieee.m")


@pytest.fixture(scope="session")
def grid57():
    return load_grid("case57_ieee.m")


@pytest.fixture(scope="session")
def grid118():
    return load_grid("case118_ieee.m")


def toy_grid() -> Grid:
    """Triangle with a radial tail; branch 4 is the only bridge.

    Gen 2.0 at the reference, loads 1.0 / 0.5 / 0.5. All-closed flows are
    1.0 / 1.0 / 0.0 / 0.5, so tripping either triangle leg overloads the
    other (limit 1.5).
    """
    buses = [Bus(1, 2.0, 0.0), Bus(2, 0.0, 1.0), Bus(3, 0.0, 0.5), Bus(4, 0.0, 0.5)]
    branches = [
        Branch(1, 1, 2, 10.0, 1.5),
        Branch(2, 1, 3, 10.0, 1.5),
        Branch(3, 2, 3, 10.0, 1.5),
        Branch(4, 3, 4, 10.0, 1.0),
    ]
    return Grid(buses, branches, reference_bus=1, name="toy4")


def balanced_island_grid() -> Grid:
    """A tail island whose generation exactly matches its load.

    Tripping the bridge (branch 3) leaves {4, 5} balanced, which admits a
    connectivity-inconsistent energization solution until a cutset lands.
    """
    buses = [
        Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0), Bus(3, 0.0, 0.0),
        Bus(4, 0.5, 0.0), Bus(5, 0.0, 0.5),
    ]
    branches = [
        Branch(1, 1, 2, 10.0, 5.0),
        Branch(2, 2, 3, 10.0, 5.0),
        Branch(3, 3, 4, 10.0, 5.0),
        Branch(4, 4, 5, 10.0, 5.0),
        Branch(5, 1, 3, 10.0, 5.0),
    ]
    return Grid(buses, branches, reference_bus=1, name="balanced-island")


def pinch_grid() -> Grid:
    """Parallel pair plus a weak bypass; genuinely insecurable.

    Base split: 0.476 on each pair branch (limit 0.7), 0.048 on the bypass
    legs (limit 0.26). Tripping either pair branch pushes its sibling to
    0.909; opening one instead overloads the bypass when the sibling trips,
    and the load bus can never be stranded while the base stays connected.
    Keeping everything closed is the strict overload-sum minimizer, which
    makes heuristic runs on this instance tie-free.
    """
    buses = [Bus(1, 1.0, 0.0), Bus(2, 0.0, 1.0), Bus(3, 0.0, 0.0)]
    branches = [
        Branch(1, 1, 2, 10.0, 0.7),
        Branch(2, 1, 2, 10.0, 0.7),
        Branch(5, 1, 3, 2.0, 0.26),
        Branch(6, 3, 2, 2.0, 0.26),
    ]
    return Grid(buses, branches, reference_bus=1, name="pinch")


def ring_grid(n: int = 6, b: float = 10.0, limit: float = 2.0) -> Grid:
    """Single cycle through n buses; no branch is a bridge."""
    buses = [Bus(1, float(n - 1) * 0.2, 0.0)]
    buses += [Bus(i, 0.0, 0.2) for i in range(2, n + 1)]
    branches = [Branch(i, i, i % n + 1, b, limit) for i in range(1, n + 1)]
    return Grid(buses, branches, reference_bus=1, name=f"ring{n}")


def six_bus_grid() -> Grid:
    """Six buses, nine branches; small enough to enumerate all 512 states."""
    buses = [
        Bus(1, 1.8, 0.0), Bus(2, 0.0, 0.4), Bus(3, 0.2, 0.5),
        Bus(4, 0.0, 0.4), Bus(5, 0.0, 0.4), Bus(6, 0.0, 0.3),
    ]
    branches = [
        Branch(1, 1, 2, 10.0, 1.2),
        Branch(2, 1, 3, 8.0, 1.2),
        Branch(3, 2, 3, 6.0, 1.0),
        Branch(4, 2, 4, 9.0, 1.0),
        Branch(5, 3, 5, 7.0, 1.0),
        Branch(6, 4, 5, 5.0, 0.8),
        Branch(7, 4, 6, 6.0, 0.8),
        Branch(8, 5, 6, 6.0, 0.8),
        Branch(9, 1, 6, 4.0, 1.0),
    ]
    return Grid(buses, branches, reference_bus=1, name="six9")


def random_connected_config(grid: Grid, rng, max_open: int = 5):
    """Random switching state whose closed graph stays connected."""
    from otsd.grid import SwitchConfig
    from otsd.oracle import bfs_energized

    ids = list(grid.branch_ids())
    for _ in range(200):
        k = rng.randrange(0, max_open + 1)
        open_set = frozenset(rng.sample(ids, k))
        closed = set(ids) - open_set
        if len(bfs_energized(grid, closed, grid.reference_bus)) == grid.n_buses:
            return SwitchConfig(open_set)
    return SwitchConfig.all_closed()


def spanning_tree_config(grid: Grid, rng):
    """Switching state that keeps only a random spanning tree closed."""
    from otsd.grid import SwitchConfig

    root = list(range(grid.n_buses))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    order = list(range(grid.n_branches))
    rng.shuffle(order)
    opened = []
    for k in order:
        a, b = find(grid.origin_idx[k]), find(grid.dest_idx[k])
        if a == b:
            opened.append(grid.branches[k].id)
        else:
            root[a] = b
    return SwitchConfig.with_open(opened)


class Recorded(Exception):
    """Stops a program at the HiGHS run ``record_highs_runs`` was asked for."""


def record_highs_runs(monkeypatch, stop_at: int | None = None) -> list[dict]:
    """Record the program of every HiGHS run, as HiGHS is about to solve it.

    Patches ``otsd.backend._Highs`` so that each ``run`` first appends the
    live model's arrays to the returned list: the matrix column-wise (from
    ``ensureColwise`` and ``getLp``) and integrality as HiGHS applies it,
    which is none while ``solve_relaxation`` is on. Run number ``stop_at``
    raises ``Recorded`` instead of solving; the runs before it go ahead.
    """
    programs: list[dict] = []

    class Recording(backend._Highs):
        def run(self):
            self.ensureColwise()
            lp = self.getLp()
            m = lp.a_matrix_
            relaxed = self.getOptionValue("solve_relaxation")[1]
            programs.append({
                "c": np.asarray(lp.col_cost_),
                "integrality": np.asarray([] if relaxed else lp.integrality_, dtype=float),
                "lb": np.asarray(lp.col_lower_), "ub": np.asarray(lp.col_upper_),
                "A": scipy.sparse.csc_array((m.value_, m.index_, m.start_),
                                            shape=(lp.num_row_, lp.num_col_)),
                "row_lb": np.asarray(lp.row_lower_), "row_ub": np.asarray(lp.row_upper_)})
            if len(programs) - 1 == stop_at:
                raise Recorded
            return super().run()

    monkeypatch.setattr(backend, "_Highs", Recording)
    return programs
