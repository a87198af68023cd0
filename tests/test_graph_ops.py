import random

import pytest
from hypothesis import given, settings, strategies as st

from otsd import graph_ops
from otsd.oracle import bfs_energized

from conftest import ring_grid, six_bus_grid, toy_grid


def brute_force_bridges(grid, closed):
    """Remove-one-and-test reference for bridge detection."""
    closed = set(closed)
    bridges = set()
    for e in closed:
        comps_before = _component_count(grid, closed)
        comps_after = _component_count(grid, closed - {e})
        if comps_after > comps_before:
            bridges.add(e)
    return bridges


def _component_count(grid, closed):
    remaining = {b.id for b in grid.buses}
    count = 0
    while remaining:
        root = next(iter(remaining))
        comp = bfs_energized(grid, closed, root)
        remaining -= comp
        count += 1
    return count


def test_all_closed_all_energized(toy=None):
    grid = toy_grid()
    ens = graph_ops.energized_component(grid, grid.branch_ids())
    assert ens.energized == set(grid.bus_ids())
    assert not ens.de_energized


def test_isolated_bus_de_energized():
    grid = toy_grid()
    ens = graph_ops.energized_component(grid, {1, 2, 3})  # branch 4 open
    assert ens.de_energized == {4}


def test_energized_matches_bfs_oracle_random(grid14):
    rng = random.Random(7)
    ids = list(grid14.branch_ids())
    for _ in range(100):
        closed = {e for e in ids if rng.random() < 0.7}
        ens = graph_ops.energized_component(grid14, closed)
        assert ens.energized == bfs_energized(grid14, closed, grid14.reference_bus)


def test_spanning_tree_all_bridges():
    grid = toy_grid()
    tree = {1, 2, 4}  # drop branch 3 to get a tree
    assert graph_ops.find_bridges(grid, tree) == tree


def test_cycle_has_no_bridges():
    grid = ring_grid(6)
    assert graph_ops.find_bridges(grid, grid.branch_ids()) == frozenset()


def test_parallel_circuits_are_not_bridges(grid24=None):
    from conftest import load_grid
    grid = load_grid("case24_ieee_rts.m")
    bridges = graph_ops.find_bridges(grid, grid.branch_ids())
    # the doubled corridors must never be bridges
    pair_counts = {}
    for e in grid.branches:
        key = tuple(sorted((e.origin, e.destination)))
        pair_counts.setdefault(key, []).append(e.id)
    for key, ids in pair_counts.items():
        if len(ids) > 1:
            assert not (set(ids) & bridges), f"parallel circuit {key} marked bridge"


def test_bridges_match_brute_force_57(grid57):
    closed = set(grid57.branch_ids())
    assert graph_ops.find_bridges(grid57, closed) == brute_force_bridges(grid57, closed)


def test_bridges_match_brute_force_random(grid30):
    rng = random.Random(3)
    ids = list(grid30.branch_ids())
    for _ in range(25):
        closed = {e for e in ids if rng.random() < 0.8}
        assert graph_ops.find_bridges(grid30, closed) == \
            brute_force_bridges(grid30, closed)


def test_bridge_isolates_iff_reported(grid30):
    closed = frozenset(grid30.branch_ids())
    bridges = graph_ops.find_bridges(grid30, closed)
    for e in grid30.branch_ids():
        ens = graph_ops.energized_component(grid30, closed - {e})
        if e in bridges:
            assert ens.de_energized
        else:
            assert not ens.de_energized


def test_separating_cutset_none_when_connected():
    grid = toy_grid()
    assert graph_ops.separating_cutset(grid, set(), 4) is None


def test_separating_cutset_frontier():
    grid = toy_grid()
    cut = graph_ops.separating_cutset(grid, {4}, 4)
    assert cut.branches == {4}
    assert cut.separated_bus == 4


def test_separating_cutset_certified_by_bfs(grid30):
    rng = random.Random(11)
    ids = list(grid30.branch_ids())
    found = 0
    for _ in range(200):
        open_set = set(rng.sample(ids, rng.randrange(1, 8)))
        closed = set(ids) - open_set
        for bus in grid30.bus_ids():
            reach = bfs_energized(grid30, closed, bus)
            if grid30.reference_bus in reach:
                continue
            cut = graph_ops.separating_cutset(grid30, open_set, bus)
            assert cut is not None
            assert cut.branches <= open_set
            # removing the cutset from the full graph separates bus from ref
            reach_without = bfs_energized(
                grid30, set(ids) - cut.branches, bus)
            assert grid30.reference_bus not in reach_without
            found += 1
    assert found > 0


def test_hop_zero_is_self(grid14):
    for e in grid14.branch_ids():
        assert graph_ops.hop(grid14, e, 0) == {e}


def test_hop_rejects_negative_distance():
    grid = toy_grid()
    with pytest.raises(ValueError):
        graph_ops.hop(grid, 1, -1)


def test_hop_one_is_bus_neighbors():
    grid = toy_grid()
    assert graph_ops.hop(grid, 4, 1) == {2, 3, 4}
    assert graph_ops.hop(grid, 1, 1) == {1, 2, 3}


def test_hop_saturates_to_component(grid14):
    m = grid14.n_branches
    assert graph_ops.hop(grid14, 1, m) == set(grid14.branch_ids())


def breadth_first_hop(grid, branch, l):
    """Level-by-level search over branches sharing a bus: the hop reference."""
    ends = {e.id: {e.origin, e.destination} for e in grid.branches}
    reached, frontier = {branch}, {branch}
    for _ in range(l):
        frontier = {e for e in ends if e not in reached
                    and any(ends[e] & ends[f] for f in frontier)}
        reached |= frontier
    return reached


def test_hop_matches_breadth_first_reference(grid30):
    diameter = graph_ops.line_graph_diameter(grid30)
    for e in grid30.branch_ids():
        for l in range(diameter + 1):
            assert graph_ops.hop(grid30, e, l) == breadth_first_hop(grid30, e, l)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_hop_monotone(eid, l):
    grid = six_bus_grid()
    assert graph_ops.hop(grid, eid, l) <= graph_ops.hop(grid, eid, l + 1)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_hop_symmetric(e1, e2, l):
    grid = six_bus_grid()
    assert (e2 in graph_ops.hop(grid, e1, l)) == (e1 in graph_ops.hop(grid, e2, l))


def test_line_graph_diameter_toy():
    grid = toy_grid()
    # branch 1 to branch 4 requires two steps (1 -> 2or3 -> 4)
    assert graph_ops.line_graph_diameter(grid) == 2


def test_line_graph_diameter_case118(grid118):
    # value of an all-pairs breadth-first search over the line graph
    assert graph_ops.line_graph_diameter(grid118) == 15
