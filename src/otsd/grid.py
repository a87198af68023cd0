"""Immutable network model: buses, branches, contingencies, switch configurations.

All quantities are stored per-unit on the case MVA base. Bus and branch ids are
the external (case file) ids; every container also carries contiguous internal
indexes so the numerical modules can work with arrays.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import DisconnectedCase, MalformedCase

UNLIMITED = math.inf


class ProbabilityModel(enum.Enum):
    """Convention for the common probability assigned to every contingency."""

    UNIT = "unit"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Bus:
    id: int
    pg_ref: float  # generation setpoint, p.u.
    pd_ref: float  # load, p.u.

    def __post_init__(self):
        if self.pg_ref < 0 or self.pd_ref < 0:
            raise MalformedCase(f"bus {self.id}: negative injection reference")


@dataclass(frozen=True)
class Branch:
    id: int
    origin: int
    destination: int
    susceptance: float  # p.u., > 0
    thermal_limit: float  # p.u.; UNLIMITED when the source data gives none

    def __post_init__(self):
        if self.origin == self.destination:
            raise MalformedCase(f"branch {self.id}: self-loop at bus {self.origin}")
        if not self.susceptance > 0:
            raise MalformedCase(f"branch {self.id}: susceptance must be positive")
        if not self.thermal_limit > 0:
            raise MalformedCase(f"branch {self.id}: thermal limit must be positive")

    @property
    def unlimited(self) -> bool:
        return math.isinf(self.thermal_limit)


@dataclass(frozen=True)
class Contingency:
    """Simultaneous loss of a set of branches (singleton under N-1)."""

    id: int
    tripped: frozenset[int]
    probability: float

    def __post_init__(self):
        if not self.tripped:
            raise MalformedCase(f"contingency {self.id}: empty tripped set")
        if self.probability < 0:
            raise MalformedCase(f"contingency {self.id}: negative probability")


@dataclass(frozen=True)
class ContingencySet:
    cases: tuple[Contingency, ...]
    include_base_case: bool = True

    def __iter__(self):
        return iter(self.cases)

    def __len__(self):
        return len(self.cases)

    def by_id(self, cid: int) -> Contingency:
        for c in self.cases:
            if c.id == cid:
                return c
        raise KeyError(cid)


class Grid:
    """Immutable network description plus derived index arrays.

    The graph of all branches is verified connected at construction; the
    reference bus must exist. Arrays are ordered by internal index, which
    follows the order of the ``buses`` / ``branches`` sequences.
    ``line_graph`` is the sparse branch x branch adjacency (two branches are
    adjacent when they share a bus), built once; ``line_distances`` holds
    its hop distances, computed on first use.
    """

    def __init__(self, buses: list[Bus], branches: list[Branch], reference_bus: int,
                 base_mva: float = 100.0, name: str = ""):
        if not buses:
            raise MalformedCase("no buses")
        if not branches:
            raise MalformedCase("no branches")
        ids = [b.id for b in buses]
        if len(set(ids)) != len(ids):
            raise MalformedCase("duplicate bus ids")
        bids = [b.id for b in branches]
        if len(set(bids)) != len(bids):
            raise MalformedCase("duplicate branch ids")

        self.buses = tuple(buses)
        self.branches = tuple(branches)
        self.reference_bus = reference_bus
        self.base_mva = float(base_mva)
        self.name = name

        self._bus_pos = {b.id: i for i, b in enumerate(buses)}
        self._branch_pos = {e.id: k for k, e in enumerate(branches)}
        if reference_bus not in self._bus_pos:
            raise MalformedCase(f"reference bus {reference_bus} not in bus table")
        for e in branches:
            if e.origin not in self._bus_pos or e.destination not in self._bus_pos:
                raise MalformedCase(f"branch {e.id}: endpoint not in bus table")

        self.n_buses = len(buses)
        self.n_branches = len(branches)
        self.bus_id = np.array(ids)
        self.branch_id = np.array(bids)
        self.origin_idx = np.array([self._bus_pos[e.origin] for e in branches])
        self.dest_idx = np.array([self._bus_pos[e.destination] for e in branches])
        self.susceptance = np.array([e.susceptance for e in branches])
        self.limit = np.array([e.thermal_limit for e in branches])
        self.pg = np.array([b.pg_ref for b in buses])
        self.pd = np.array([b.pd_ref for b in buses])
        self.ref_idx = self._bus_pos[reference_bus]

        # incidence lists: E+ (leaving, bus is origin) and E- (entering)
        self.out_branches: list[list[int]] = [[] for _ in range(self.n_buses)]
        self.in_branches: list[list[int]] = [[] for _ in range(self.n_buses)]
        for k, e in enumerate(branches):
            self.out_branches[self.origin_idx[k]].append(k)
            self.in_branches[self.dest_idx[k]].append(k)

        # branch x bus incidence: buses sharing a branch are adjacent in the
        # bus graph, branches sharing a bus in the line graph
        m = self.n_branches
        incidence = scipy.sparse.csr_matrix(
            (np.ones(2 * m), (np.tile(np.arange(m), 2),
                              np.concatenate([self.origin_idx, self.dest_idx]))),
            shape=(m, self.n_buses))
        if connected_components(incidence.T @ incidence, directed=False)[0] != 1:
            raise DisconnectedCase("graph of all branches is not connected")
        line_graph = incidence @ incidence.T
        line_graph.setdiag(0)
        line_graph.eliminate_zeros()
        self.line_graph = line_graph

    @functools.cached_property
    def line_distances(self) -> np.ndarray:
        """Line-graph distance between every pair of branches, by internal index."""
        return shortest_path(self.line_graph, directed=False, unweighted=True)

    def bus_index(self, bus_id: int) -> int:
        return self._bus_pos[bus_id]

    def branch_index(self, branch_id: int) -> int:
        return self._branch_pos[branch_id]

    def branch_indexes(self, branch_ids) -> np.ndarray:
        """Sorted internal indexes of a collection of branch ids."""
        return np.array(sorted({self._branch_pos[e] for e in branch_ids}), dtype=int)

    def branch_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.branches)

    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @property
    def total_load(self) -> float:
        return float(self.pd.sum())

    @property
    def total_generation(self) -> float:
        return float(self.pg.sum())

    def __repr__(self):
        return (f"Grid({self.name or 'unnamed'}: {self.n_buses} buses, "
                f"{self.n_branches} branches, ref={self.reference_bus})")


@dataclass(frozen=True)
class SwitchConfig:
    """Base-case open/close vector; post-contingency status follows by masking."""

    open_branches: frozenset[int]

    @staticmethod
    def all_closed() -> "SwitchConfig":
        return SwitchConfig(frozenset())

    @staticmethod
    def with_open(branch_ids) -> "SwitchConfig":
        return SwitchConfig(frozenset(branch_ids))

    def base_status(self, grid: Grid) -> dict[int, bool]:
        """Map branch id -> closed flag, defined for every branch."""
        return {e.id: e.id not in self.open_branches for e in grid.branches}

    def post_contingency_status(self, grid: Grid, contingency: Contingency | None) -> dict[int, bool]:
        """Base status masked by the trip vector: tripped branches forced open."""
        status = self.base_status(grid)
        if contingency is not None:
            for e in contingency.tripped:
                status[e] = False
        return status

    def closed_set(self, grid: Grid, contingency: Contingency | None = None) -> frozenset[int]:
        closed = set(grid.branch_ids()) - self.open_branches
        if contingency is not None:
            closed -= contingency.tripped
        return frozenset(closed)

    def opening(self, *branch_ids) -> "SwitchConfig":
        return SwitchConfig(self.open_branches | frozenset(branch_ids))

    def closing(self, *branch_ids) -> "SwitchConfig":
        return SwitchConfig(self.open_branches - frozenset(branch_ids))

    @property
    def n_open(self) -> int:
        return len(self.open_branches)


def build_grid(raw_case, tlf: float = 1.0) -> Grid:
    """Assemble a Grid from parsed case data.

    Thermal limits are scaled by ``tlf``; ratings of zero in the source data
    become the unlimited sentinel. Generator setpoints are rescaled so total
    generation matches total load (the base case fixes generation, so the
    input must be balanced for the base power flow to exist).
    """
    if not tlf > 0:
        raise MalformedCase(f"tlf must be positive, got {tlf}")
    base = raw_case.mva_base
    if not base > 0:
        raise MalformedCase(f"MVA base must be positive, got {base}")

    pd = {int(b): mw / base for b, mw in raw_case.bus_load.items()}
    pg = {int(b): 0.0 for b in pd}
    for bus, mw in raw_case.gen_output.items():
        if int(bus) not in pg:
            raise MalformedCase(f"generator references unknown bus {bus}")
        pg[int(bus)] += mw / base

    total_pd = sum(pd.values())
    total_pg = sum(pg.values())
    if total_pd > 0:
        if total_pg <= 0:
            raise MalformedCase("case has load but no generation to scale")
        scale = total_pd / total_pg
        pg = {b: v * scale for b, v in pg.items()}

    buses = [Bus(id=b, pg_ref=pg[b], pd_ref=pd[b]) for b in pd]

    branches = []
    for row in raw_case.branch_rows:
        limit = row.rate_mw * tlf / base if row.rate_mw > 0 else UNLIMITED
        branches.append(Branch(
            id=row.id, origin=row.from_bus, destination=row.to_bus,
            susceptance=row.susceptance, thermal_limit=limit,
        ))

    ref = raw_case.reference_bus
    if ref is None:
        ref = buses[0].id
    return Grid(buses, branches, reference_bus=ref, base_mva=base, name=raw_case.name)


def n_minus_1_contingencies(grid: Grid, prob_model: ProbabilityModel = ProbabilityModel.UNIT,
                            include_base_case: bool = True) -> ContingencySet:
    """One single-branch contingency per branch, equal probability each.

    Contingency ids coincide with the tripped branch id, which keeps
    tie-breaking deterministic.
    """
    m = grid.n_branches
    p = 1.0 if prob_model is ProbabilityModel.UNIT else 1.0 / m
    cases = tuple(
        Contingency(id=e.id, tripped=frozenset({e.id}), probability=p)
        for e in grid.branches
    )
    return ContingencySet(cases=cases, include_base_case=include_base_case)
