"""Independent reference model used to check the benchmark's outputs.

Numpy only, and nothing shared with the package under test: its own reader
for the MATPOWER subset the bundled cases use, its own reachability search,
its own proportional rebalancing and a ``numpy.linalg.solve`` DC power flow
(see ``screen``). The model it encodes is the problem statement:

* a branch's id is its row number in the branch table (out-of-service rows
  keep their number and are dropped); one contingency per in-service
  branch, with the branch's id and probability 1;
* after a trip, buses not reachable from the reference bus over closed
  branches black out; the energized area rescales every generator by
  ``sigma = load_on / gen_on`` (all load is lost when the area has load but
  no generation) and islands carry no flow;
* a branch is violated when ``|flow| - limit > tol``; limits are ``rateA``
  times the thermal limit factor, with a zero rating meaning unlimited;
* generator setpoints are scaled once so that total generation equals total
  load.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

TOL = 1e-6


def _rows(text: str, table: str) -> list[list[float]]:
    """Numeric rows of ``mpc.<table> = [ ... ];``, comments stripped."""
    rows: list[list[float]] = []
    inside = False
    for raw in text.splitlines():
        line = raw.split("%", 1)[0]
        if not inside:
            head = line.replace(" ", "")
            if head.startswith(f"mpc.{table}=["):
                inside = True
                line = line.split("[", 1)[1]
            else:
                continue
        done = "]" in line
        line = line.split("]", 1)[0]
        for chunk in line.split(";"):
            if chunk.strip():
                rows.append([float(tok) for tok in chunk.replace(",", " ").split()])
        if done:
            break
    return rows


def _base_mva(text: str) -> float:
    for raw in text.splitlines():
        line = raw.split("%", 1)[0].replace(" ", "")
        if line.startswith("mpc.baseMVA="):
            return float(line.split("=", 1)[1].rstrip(";"))
    raise ValueError("no mpc.baseMVA")


@dataclass
class Network:
    """Arrays of one case at one thermal limit factor, in per-unit."""

    bus_ids: list[int]
    ref: int  # bus index
    pg: np.ndarray
    pd: np.ndarray
    frm: np.ndarray  # branch -> bus index
    to: np.ndarray
    b: np.ndarray  # susceptance 1/x
    limit: np.ndarray  # inf when unrated
    branch_ids: list[int]

    @property
    def n(self) -> int:
        return len(self.bus_ids)

    @property
    def m(self) -> int:
        return len(self.branch_ids)


def network_from_text(text: str, tlf: float) -> Network:
    base = _base_mva(text)
    bus_rows = _rows(text, "bus")
    bus_ids = [int(r[0]) for r in bus_rows]
    pos = {bid: i for i, bid in enumerate(bus_ids)}
    pd = np.array([r[2] for r in bus_rows]) / base
    ref_rows = [i for i, r in enumerate(bus_rows) if int(r[1]) == 3]
    ref = ref_rows[0] if ref_rows else 0
    pg = np.zeros(len(bus_ids))
    for r in _rows(text, "gen"):
        if len(r) > 7 and r[7] <= 0:
            continue
        pg[pos[int(r[0])]] += r[1] / base
    if pd.sum() > 0:
        pg = pg * (pd.sum() / pg.sum())
    frm, to, b, limit, ids = [], [], [], [], []
    for row_no, r in enumerate(_rows(text, "branch"), start=1):
        if len(r) > 10 and r[10] <= 0:
            continue
        ids.append(row_no)
        frm.append(pos[int(r[0])])
        to.append(pos[int(r[1])])
        b.append(1.0 / r[3])
        rate = r[5] if len(r) > 5 else 0.0
        limit.append(rate * tlf / base if rate > 0 else np.inf)
    return Network(bus_ids=bus_ids, ref=ref, pg=pg, pd=pd,
                   frm=np.array(frm, dtype=int), to=np.array(to, dtype=int),
                   b=np.array(b), limit=np.array(limit),
                   branch_ids=ids)


def reachable(net: Network, closed: np.ndarray) -> np.ndarray:
    """Boolean mask of buses joined to the reference bus by closed branches."""
    adj: list[list[int]] = [[] for _ in range(net.n)]
    for k in np.flatnonzero(closed):
        adj[net.frm[k]].append(net.to[k])
        adj[net.to[k]].append(net.frm[k])
    seen = np.zeros(net.n, dtype=bool)
    seen[net.ref] = True
    queue = deque([net.ref])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return seen


@dataclass
class State:
    """Post-contingency operating point (the base case when ``cid`` is None)."""

    cid: int | None
    energized: np.ndarray  # bool per bus
    sigma: float
    loss: float
    flows: np.ndarray  # per branch, zero on open, tripped and island branches


@dataclass
class Screen:
    states: list[State]
    violating: dict  # cid (None for the base case) -> frozenset of branch ids
    loss: dict  # cid -> stranded load, nonzero entries only
    objective: float
    base_connected: bool


def _pinned_laplacian(net: Network, closed: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Susceptance matrix over closed branches; buses not in ``free`` pinned to 0."""
    lap = np.zeros((net.n, net.n))
    w = closed * net.b
    np.add.at(lap, (net.frm, net.frm), w)
    np.add.at(lap, (net.to, net.to), w)
    np.add.at(lap, (net.frm, net.to), -w)
    np.add.at(lap, (net.to, net.frm), -w)
    lap *= free[:, None] & free[None, :]
    lap[~free, ~free] = 1.0
    return lap


def _adjacency(net: Network, closed: np.ndarray) -> list[list[tuple[int, int]]]:
    """Bus index -> [(neighbour bus index, branch index)] over closed branches."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.n)]
    for k in np.flatnonzero(closed):
        adj[net.frm[k]].append((net.to[k], k))
        adj[net.to[k]].append((net.frm[k], k))
    return adj


def _side(adj: list[list[tuple[int, int]]], start: int, goal: int,
          skip: int) -> set[int] | None:
    """Buses reached from ``start`` without branch ``skip``; None once ``goal`` is."""
    seen = {start}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j, k in adj[i]:
            if k == skip or j in seen:
                continue
            if j == goal:
                return None
            seen.add(j)
            queue.append(j)
    return seen


def bridges(net: Network, open_ids) -> frozenset[int]:
    """Ids of the closed branches whose trip splits the closed graph."""
    closed = ~np.isin(np.array(net.branch_ids), list(open_ids))
    adj = _adjacency(net, closed)
    return frozenset(net.branch_ids[k] for k in np.flatnonzero(closed)
                     if _side(adj, net.frm[k], net.to[k], k) is not None)


def screen(net: Network, open_ids, tol: float = TOL,
           check_limits: bool = True) -> Screen:
    """Base case plus every single-branch trip of one switching configuration.

    Angles solve ``B theta = p`` with the reference angle pinned, and a flow
    is ``b (theta_from - theta_to)``. One ``numpy.linalg.solve`` gives the
    base angles and the response ``x_k`` to a unit injection across each
    closed branch; a trip that keeps the grid whole then follows from the
    rank-one identity ``theta_k = theta + x_k b_k (theta_f - theta_t) / d_k``
    with ``d_k = 1 - b_k (x_k,f - x_k,t)``. ``d_k`` vanishes exactly when the
    trip splits the grid: those trips get a reachability search,
    rebalancing and a solve of their own, with island angles pinned.
    """
    closed0 = ~np.isin(np.array(net.branch_ids), list(open_ids))
    base_on = reachable(net, closed0)
    if not base_on.all():
        return Screen(states=[], violating={}, loss={}, objective=0.0,
                      base_connected=False)
    free = np.ones(net.n, dtype=bool)
    free[net.ref] = False
    live = np.flatnonzero(closed0)
    rhs = np.zeros((net.n, 1 + len(live)))
    rhs[:, 0] = net.pg - net.pd
    rhs[net.frm[live], 1 + np.arange(len(live))] += 1.0
    rhs[net.to[live], 1 + np.arange(len(live))] -= 1.0
    rhs[net.ref] = 0.0
    sol = np.linalg.solve(_pinned_laplacian(net, closed0, free), rhs)
    theta0, x = sol[:, 0], sol[:, 1:]
    gap0 = theta0[net.frm] - theta0[net.to]
    denom = 1.0 - net.b[live] * (x[net.frm[live], np.arange(len(live))]
                                 - x[net.to[live], np.arange(len(live))])

    # every state starts as the base case; trips of open branches stay so
    n_states = 1 + net.m
    energized = np.ones((n_states, net.n), dtype=bool)
    sigma = np.full(n_states, net.pd.sum() / net.pg.sum() if net.pg.sum() > 0 else 0.0)
    served = np.full(n_states, net.pd.sum())
    flows = np.repeat((closed0 * net.b * gap0)[None], n_states, axis=0)

    whole = np.abs(denom) > 1e-9
    ks = live[whole]
    theta = theta0[:, None] + x[:, whole] * (net.b[ks] * gap0[ks] / denom[whole])[None, :]
    closed = np.repeat(closed0[None], len(ks), axis=0)
    closed[np.arange(len(ks)), ks] = False
    flows[1 + ks] = closed * net.b[None, :] * (theta[net.frm].T - theta[net.to].T)

    adj = _adjacency(net, closed0)
    for k in live[~whole]:
        side = _side(adj, net.frm[k], net.to[k], k)
        if side is None:
            raise ArithmeticError(f"branch {net.branch_ids[k]}: singular update on a cycle")
        mask = np.zeros(net.n, dtype=bool)
        mask[list(side)] = True
        on = mask if mask[net.ref] else ~mask
        s = 1 + k
        load_on, gen_on = float(net.pd[on].sum()), float(net.pg[on].sum())
        if gen_on <= 0.0 and load_on > 0.0:
            # the area cannot be balanced: all load is lost, nothing flows
            energized[s], sigma[s], served[s], flows[s] = False, 0.0, 0.0, 0.0
            continue
        energized[s], served[s] = on, load_on
        sigma[s] = load_on / gen_on if gen_on > 0.0 else 0.0
        closed_s = closed0.copy()
        closed_s[k] = False
        pin = on & free
        p = np.where(pin, sigma[s] * net.pg - net.pd, 0.0)
        th = np.linalg.solve(_pinned_laplacian(net, closed_s, pin), p)
        flows[s] = closed_s * net.b * (th[net.frm] - th[net.to])

    loss_all = net.pd.sum() - served
    cids: list[int | None] = [None] + list(net.branch_ids)
    states, violating, loss = [], {}, {}
    objective = 0.0
    for s, cid in enumerate(cids):
        ll = float(loss_all[s]) if abs(loss_all[s]) > 1e-12 else 0.0
        states.append(State(cid=cid, energized=energized[s], sigma=float(sigma[s]),
                            loss=ll, flows=flows[s]))
        if cid is not None and ll > 1e-12:
            loss[cid] = ll
            objective += ll
        if check_limits:
            over = np.flatnonzero(np.abs(flows[s]) - net.limit > tol)
            if over.size:
                violating[cid] = frozenset(net.branch_ids[k] for k in over)
    return Screen(states=states, violating=violating, loss=loss,
                  objective=objective, base_connected=True)


def structural_risk(net: Network) -> float:
    """Objective of the all-closed configuration with limits ignored."""
    return screen(net, (), check_limits=False).objective


def best_plan(net: Network, max_open: int = 2) -> tuple[float, tuple[int, ...]] | None:
    """Lowest objective over secure, base-connected plans with few openings."""
    best = None
    for k in range(max_open + 1):
        for plan in itertools.combinations(net.branch_ids, k):
            res = screen(net, plan)
            if not res.base_connected or res.violating:
                continue
            if best is None or res.objective < best[0] - 1e-12:
                best = (res.objective, plan)
    return best
