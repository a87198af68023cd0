"""Pure graph algorithms on the branch/bus structure.

Everything here speaks external bus/branch ids and takes the set of closed
(or open) branches explicitly, so callers can evaluate arbitrary switching
states without touching the Grid object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components, shortest_path

from .grid import Grid


@dataclass(frozen=True)
class EnergizedSet:
    """Partition of the buses into the reference component and the rest."""

    energized: frozenset[int]
    de_energized: frozenset[int]

    @property
    def has_blackout(self) -> bool:
        return bool(self.de_energized)


@dataclass(frozen=True)
class Cutset:
    """Branches whose removal separates ``separated_bus`` from the reference."""

    branches: frozenset[int]
    separated_bus: int


def component_labels(grid: Grid, closed_branches) -> np.ndarray:
    """Component label of every bus index in the subgraph of closed branches."""
    ks = np.array([grid.branch_index(e) for e in closed_branches], dtype=int)
    o, d, n = grid.origin_idx[ks], grid.dest_idx[ks], grid.n_buses
    # origin -> destination adjacency, assembled in CSR form directly (half
    # the cost of a COO conversion); its weak components are the bus components
    indptr = np.concatenate(([0], np.cumsum(np.bincount(o, minlength=n))))
    adjacency = scipy.sparse.csr_array(
        (np.ones(len(ks)), d[np.argsort(o, kind="stable")], indptr), shape=(n, n))
    return connected_components(adjacency, connection="weak")[1]


def energized_component(grid: Grid, closed_branches) -> EnergizedSet:
    """Component of the reference bus in the subgraph of closed branches."""
    labels = component_labels(grid, closed_branches)
    on = labels == labels[grid.ref_idx]
    ids = np.array(grid.bus_ids())
    return EnergizedSet(
        energized=frozenset(ids[on].tolist()),
        de_energized=frozenset(ids[~on].tolist()),
    )


def find_bridges(grid: Grid, closed_branches) -> frozenset[int]:
    """Closed branches whose single removal disconnects previously-connected buses.

    Linear-time lowlink traversal; parallel circuits are handled by tracking
    the branch id used to enter a vertex, so a double circuit is never a
    bridge. Disconnected closed subgraphs are processed per component.
    """
    n = grid.n_buses
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # bus -> [(bus, branch id)]
    for e in closed_branches:
        k = grid.branch_index(e)
        o, d = int(grid.origin_idx[k]), int(grid.dest_idx[k])
        adj[o].append((d, e))
        adj[d].append((o, e))
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    counter = 0

    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        # stack entries: (vertex, entering branch id, iterator position)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, in_edge, ptr = stack[-1]
            if ptr < len(adj[v]):
                stack[-1] = (v, in_edge, ptr + 1)
                w, eid = adj[v][ptr]
                if eid == in_edge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, 0))
                else:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add(in_edge)
    return frozenset(bridges)


def separating_cutset(grid: Grid, open_branches, bus: int) -> Cutset | None:
    """Frontier cutset separating ``bus`` from the reference, if any.

    Returns the set of branches with exactly one endpoint in the closed-graph
    component of ``bus``; all of them are open, so the cutset is a minimal
    certificate of the disconnection. None when the bus reaches the reference.
    """
    open_set = frozenset(open_branches)
    labels = component_labels(grid, [e for e in grid.branch_ids() if e not in open_set])
    own = labels[grid.bus_index(bus)]
    if labels[grid.ref_idx] == own:
        return None
    inside = labels == own
    frontier = np.flatnonzero(inside[grid.origin_idx] != inside[grid.dest_idx])
    return Cutset(branches=frozenset(grid.branches[k].id for k in frontier),
                  separated_bus=bus)


def hop(grid: Grid, branch: int, l: int) -> frozenset[int]:
    """Branches within line-graph distance ``l`` of ``branch``.

    Two branches are adjacent when they share a bus; hop(e, 0) = {e} and the
    result grows monotonically with ``l``.
    """
    if l < 0:
        raise ValueError("hop distance must be non-negative")
    incident_ids: list[list[int]] = [
        [grid.branches[k].id for k in ks] for ks in grid.incident
    ]
    reached = {branch}
    frontier = [branch]
    for _ in range(l):
        nxt = []
        for e in frontier:
            k = grid.branch_index(e)
            for i in (int(grid.origin_idx[k]), int(grid.dest_idx[k])):
                for other in incident_ids[i]:
                    if other not in reached:
                        reached.add(other)
                        nxt.append(other)
        if not nxt:
            break
        frontier = nxt
    return frozenset(reached)


def line_graph_diameter(grid: Grid) -> int:
    """Eccentricity bound used to decide when hop saturation proves infeasibility."""
    m = grid.n_branches
    # branch x bus incidence; two branches are adjacent when they share a bus
    incidence = scipy.sparse.csr_matrix(
        (np.ones(2 * m), (np.tile(np.arange(m), 2),
                          np.concatenate([grid.origin_idx, grid.dest_idx]))),
        shape=(m, grid.n_buses))
    line_graph = incidence @ incidence.T
    line_graph.setdiag(0)
    line_graph.eliminate_zeros()
    return int(shortest_path(line_graph, directed=False, unweighted=True).max())
