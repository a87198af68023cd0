"""Graph questions on the branch/bus structure, answered by two primitives.

``component_labels`` labels the bus components of any set of closed
branches (or of several sets at once) with one sparse
``connected_components`` call; energized areas, disconnection cutsets and
the components of a power flow are read off its labels. Hop neighbourhoods
and the line-graph diameter are read off the line-graph distances each
``Grid`` computes once, on first use. ``find_bridges`` keeps its own lowlink
pass as an independent check of the PTDF bridge test.

The public functions speak external bus/branch ids and take the set of
closed (or open) branches explicitly, so callers can evaluate arbitrary
switching states without touching the Grid object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .grid import Grid


@dataclass(frozen=True)
class EnergizedSet:
    """Partition of the buses into the reference component and the rest."""

    energized: frozenset[int]
    de_energized: frozenset[int]


@dataclass(frozen=True)
class Cutset:
    """Branches whose removal separates ``separated_bus`` from the reference."""

    branches: frozenset[int]
    separated_bus: int


def component_labels(grid: Grid, closed) -> np.ndarray:
    """Component label of every bus index in the subgraph of closed branches.

    ``closed`` selects branches by internal index: a boolean mask or an
    index array. A 2-d boolean mask holds one selection per row and gets one
    row of labels each, from one labelling of the block-diagonal graph of all
    rows (a label never repeats across rows).
    """
    n, count, by_block = grid.n_buses, 1, np.ndim(closed) == 2
    if by_block:
        count = len(closed)
        block, ks = np.nonzero(closed)
        o, d = grid.origin_idx[ks] + n * block, grid.dest_idx[ks] + n * block
    else:
        o, d = grid.origin_idx[closed], grid.dest_idx[closed]
    size = n * count
    # origin -> destination adjacency, assembled in CSR form directly (half
    # the cost of a COO conversion); its weak components are the bus components
    indptr = np.concatenate(([0], np.cumsum(np.bincount(o, minlength=size))))
    adjacency = scipy.sparse.csr_array(
        (np.ones(len(o)), d[np.argsort(o, kind="stable")], indptr), shape=(size, size))
    labels = connected_components(adjacency, connection="weak")[1]
    return labels.reshape(count, n) if by_block else labels


def component_frontier(grid: Grid, labels: np.ndarray, bus_idx: int) -> np.ndarray:
    """Indexes of the branches with exactly one endpoint in the component of ``bus_idx``."""
    inside = labels == labels[bus_idx]
    return np.flatnonzero(inside[grid.origin_idx] != inside[grid.dest_idx])


def energized_component(grid: Grid, closed_branches) -> EnergizedSet:
    """Component of the reference bus in the subgraph of closed branches."""
    labels = component_labels(grid, grid.branch_indexes(closed_branches))
    on = labels == labels[grid.ref_idx]
    return EnergizedSet(
        energized=frozenset(grid.bus_id[on].tolist()),
        de_energized=frozenset(grid.bus_id[~on].tolist()),
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
    closed = ~np.isin(grid.branch_id, list(open_branches))
    labels = component_labels(grid, closed)
    i = grid.bus_index(bus)
    if labels[grid.ref_idx] == labels[i]:
        return None
    frontier = component_frontier(grid, labels, i)
    return Cutset(branches=frozenset(grid.branch_id[frontier].tolist()), separated_bus=bus)


def hop(grid: Grid, branch: int, l: int) -> frozenset[int]:
    """Branches within line-graph distance ``l`` of ``branch``.

    Two branches are adjacent when they share a bus; hop(e, 0) = {e} and the
    result grows monotonically with ``l``. One row of the grid's line-graph
    distances, compared with ``l``.
    """
    if l < 0:
        raise ValueError("hop distance must be non-negative")
    return frozenset(grid.branch_id[grid.line_distances[grid.branch_index(branch)] <= l]
                     .tolist())


def line_graph_diameter(grid: Grid) -> int:
    """Eccentricity bound used to decide when hop saturation proves infeasibility."""
    return int(grid.line_distances.max())
