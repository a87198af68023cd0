"""The four workloads: inputs drawn from the seed, the operation each one
times, and the check of every output against the reference model.

Inputs are drawn from the seed with the reference model alone, off the
clock: instance lists are fixed, and ``round(r)`` draws round ``r`` from its
own stream, so the same seed gives the same inputs however long a run is.
``bind`` builds the package's own objects for the instances; it is not timed,
since the set-up probes measure that cost in fresh interpreters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

CASES = {14: "case14_ieee.m", 24: "case24_ieee_rts.m", 30: "case30_ieee.m",
         57: "case57_ieee.m", 118: "case118_ieee.m"}

ABS_TOL = 1e-6  # objective, flow, sigma and served-load agreement
RISK_TOL = 1e-9  # an objective may undercut the structural risk by float dust only


@dataclass
class Op:
    key: tuple  # the distinct instance this operation works on
    run: Callable[[], object]


class Workload:
    name: str
    setup: tuple[int, float, bool]  # case, tlf and structural risk of the set-up probe
    solve = False  # per-instance medians, then a geometric mean, for op_ms_p50
    min_rounds = 1  # rounds that objective_sum is summed over

    def __init__(self, data: Path, seed: int):
        self.data = data
        self.seed = seed
        self._nets: dict[tuple, reference.Network] = {}

    def net(self, n: int, tlf: float) -> reference.Network:
        key = (n, tlf)
        if key not in self._nets:
            text = (self.data / CASES[n]).read_text()
            self._nets[key] = reference.network_from_text(text, tlf)
        return self._nets[key]

    def _rng(self, r: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + r)

    def bind(self, otsd) -> None:
        self.otsd = otsd
        self._grids: dict[tuple, tuple] = {}

    def grid(self, n: int, tlf: float):
        key = (n, tlf)
        if key not in self._grids:
            grid = self.otsd.build_grid(self.otsd.load_case(self.data / CASES[n]), tlf=tlf)
            self._grids[key] = (grid, self.otsd.n_minus_1_contingencies(grid))
        return self._grids[key]

    def warm_up(self) -> None:
        """One untimed operation before the timed phase (lazy imports, first calls)."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def objective(self, out) -> float:
        raise NotImplementedError

    def check(self, key: tuple, out) -> str | None:
        """None when ``out`` agrees with the reference, else what disagrees."""
        raise NotImplementedError


def _connected_plan(net: reference.Network, rng: random.Random, k: int) -> tuple[int, ...]:
    while True:
        plan = tuple(sorted(rng.sample(net.branch_ids, k)))
        closed = ~np.isin(net.branch_ids, plan)
        if reference.reachable(net, closed).all():
            return plan


class ScreenN1(Workload):
    """``SecurityAnalyzer.analyze`` on random connected 118-bus configurations."""

    name = "screen-n1"
    case, tlf = 118, 1.25
    round_size = 64
    min_rounds = 16
    # configuration i of a round opens openings[i % 5] branches; single
    # openings are left out, as a long run would exhaust the distinct ones
    openings = (2, 3, 4, 5, 6)
    setup = (118, 1.25, False)

    def __init__(self, data, seed):
        super().__init__(data, seed)
        self._seen: set[tuple[int, ...]] = set()
        self._plans: dict[tuple, tuple[int, ...]] = {}

    def _plans_of(self, r: int) -> list[tuple[int, ...]]:
        net, rng = self.net(self.case, self.tlf), self._rng(r)
        plans = []
        while len(plans) < self.round_size:
            k = self.openings[len(plans) % len(self.openings)]
            plan = _connected_plan(net, rng, k)
            if plan not in self._seen:  # every configuration is new to the cache
                self._seen.add(plan)
                plans.append(plan)
        return plans

    def bind(self, otsd):
        super().bind(otsd)
        grid, cons = self.grid(self.case, self.tlf)
        self.analyzer = otsd.SecurityAnalyzer(grid, cons)

    def warm_up(self):
        self.otsd.SecurityAnalyzer(*self.grid(self.case, self.tlf)).analyze(
            self.otsd.SwitchConfig.all_closed())

    def round(self, r):
        ops = []
        for i, plan in enumerate(self._plans_of(r)):
            self._plans[(r, i)] = plan
            config = self.otsd.SwitchConfig.with_open(plan)
            ops.append(Op(key=(r, i), run=lambda c=config: self.analyzer.analyze(c)))
        return ops

    def objective(self, out):
        return out.total_objective

    def check(self, key, out):
        plan = self._plans[key]
        ref = reference.screen(self.net(self.case, self.tlf), plan)
        got = {cid: frozenset(d.violated_branches)
               for cid, d in out.violating_contingencies.items()}
        if got != ref.violating:
            return f"plan {plan}: violating sets differ"
        if set(out.loss_of_load) != set(ref.loss) or any(
                abs(out.loss_of_load[c] - ref.loss[c]) > ABS_TOL for c in ref.loss):
            return f"plan {plan}: loss of load differs"
        if abs(out.total_objective - ref.objective) > ABS_TOL:
            return f"plan {plan}: objective {out.total_objective} != {ref.objective}"
        return None

    def describe(self):
        return {"case": self.case, "tlf": self.tlf, "round_size": self.round_size,
                "openings": list(self.openings)}


class _Solves(Workload):
    """Shared check of a returned switching plan."""

    solve = True
    instances: list[tuple[int, float]] = []

    def round(self, r):
        order = list(self.instances)
        self._rng(r).shuffle(order)
        return [Op(key=inst, run=lambda i=inst: self._solve(*i)) for inst in order]

    def objective(self, out):
        return out.objective

    def _plan_error(self, key, out) -> str | None:
        net = self.net(*key)
        ref = reference.screen(net, out.openings)
        if not ref.base_connected:
            return f"{key}: plan {out.openings} disconnects the base case"
        if ref.violating:
            return f"{key}: plan {out.openings} violates {sorted(ref.violating, key=str)}"
        if abs(out.objective - ref.objective) > ABS_TOL:
            return f"{key}: objective {out.objective} != reference {ref.objective}"
        risk = reference.structural_risk(net)
        if out.objective < risk - RISK_TOL:
            return f"{key}: objective {out.objective} below structural risk {risk}"
        return None

    def describe(self):
        return {"instances": [f"{n}@{tlf:g}" for n, tlf in self.instances]}


class Heuristic(_Solves):
    """``heuristic.solve`` on instances where the all-closed plan is insecure."""

    name = "heuristic"
    instances = [(14, 1.0), (30, 1.0), (57, 1.0), (57, 1.2),
                 (57, 0.9), (24, 0.9), (118, 1.35), (118, 1.4)]
    setup = (118, 1.35, True)

    def _solve(self, n, tlf):
        return self.otsd.heuristic.solve(*self.grid(n, tlf))

    def warm_up(self):
        self._solve(30, 1.0)

    def check(self, key, out):
        if out.status is not self.otsd.SolveStatus.FEASIBLE:
            return f"{key}: status {out.status.value}"
        return self._plan_error(key, out)


class Extensive(_Solves):
    """``solve_extensive`` to proven optimality on small instances."""

    name = "extensive"
    instances = [(14, 1.0), (30, 1.2)]
    setup = (30, 1.2, True)
    max_enumerated = 2

    def bind(self, otsd):
        super().bind(otsd)
        self._bounds: dict[tuple, tuple] = {}

    def _solve(self, n, tlf):
        return self.otsd.milp_model.solve_extensive(*self.grid(n, tlf))

    def warm_up(self):
        self.otsd.heuristic.solve(*self.grid(30, 1.0))

    def _upper_bounds(self, key):
        """Heuristic objective and best enumerated plan: computed once, untimed."""
        if key not in self._bounds:
            heur = self.otsd.heuristic.solve(*self.grid(*key))
            best = reference.best_plan(self.net(*key), self.max_enumerated)
            self._bounds[key] = (heur, best)
        return self._bounds[key]

    def check(self, key, out):
        if out.status is not self.otsd.SolveStatus.OPTIMAL:
            return f"{key}: status {out.status.value}"
        err = self._plan_error(key, out)
        if err:
            return err
        heur, best = self._upper_bounds(key)
        if heur.status.is_feasible and out.objective > heur.objective + ABS_TOL:
            return f"{key}: optimum {out.objective} worse than heuristic {heur.objective}"
        if best is not None and out.objective > best[0] + ABS_TOL:
            return f"{key}: optimum {out.objective} worse than plan {best[1]} ({best[0]})"
        return None


class FixedConfig(Workload):
    """``fixed_config_flows`` on random connected 57-bus configurations.

    Each configuration opens three branches and keeps the bridge set of the
    all-closed grid, so every configuration strands the same load under the
    same trips: the summed objective is a checksum fixed by the case, and the
    per-configuration work stays alike across seeds.
    """

    name = "fixed-config"
    case, tlf = 57, 1.0
    round_size = 3
    n_open = 3
    setup = (57, 1.0, False)

    def __init__(self, data, seed):
        super().__init__(data, seed)
        self._plans: dict[tuple, tuple[int, ...]] = {}

    def _plans_of(self, r):
        net, rng = self.net(self.case, self.tlf), self._rng(r)
        radial = reference.bridges(net, ())
        plans = []
        while len(plans) < self.round_size:
            plan = _connected_plan(net, rng, self.n_open)
            if reference.bridges(net, plan) == radial and plan not in plans:
                plans.append(plan)
        return plans

    def warm_up(self):
        grid, cons = self.grid(14, 1.0)
        self.otsd.milp_model.fixed_config_flows(
            grid, self.otsd.SwitchConfig.all_closed(), cons)

    def round(self, r):
        grid, cons = self.grid(self.case, self.tlf)
        ops = []
        for i, plan in enumerate(self._plans_of(r)):
            self._plans[(r, i)] = plan
            config = self.otsd.SwitchConfig.with_open(plan)
            ops.append(Op(key=(r, i), run=lambda c=config: self.otsd.milp_model
                          .fixed_config_flows(grid, c, cons)))
        return ops

    def objective(self, out):
        return sum(s.loss_of_load for s in out.states.values())

    def check(self, key, out):
        plan = self._plans[key]
        net = self.net(self.case, self.tlf)
        ref = reference.screen(net, plan, check_limits=False)
        base = ref.states[0]
        if max(abs(out.base_flows[e] - base.flows[k])
               for k, e in enumerate(net.branch_ids)) > ABS_TOL:
            return f"plan {plan}: base flows differ"
        for st in ref.states[1:]:
            got = out.states[st.cid]
            dead = not st.energized.any()
            if not got.feasible or dead:
                if got.feasible != (not dead):
                    return f"plan {plan}, trip {st.cid}: feasibility differs"
                continue
            if max(abs(got.flows[e] - st.flows[k])
                   for k, e in enumerate(net.branch_ids)) > ABS_TOL:
                return f"plan {plan}, trip {st.cid}: flows differ"
            if abs(got.sigma - st.sigma) > ABS_TOL:
                return f"plan {plan}, trip {st.cid}: sigma {got.sigma} != {st.sigma}"
            if abs(got.loss_of_load - st.loss) > ABS_TOL:
                return f"plan {plan}, trip {st.cid}: served load differs"
            for i, bus in enumerate(net.bus_ids):
                pi = got.pi[bus]
                if abs(pi - round(pi)) > ABS_TOL or (pi > 0.5) != bool(st.energized[i]):
                    return f"plan {plan}, trip {st.cid}: energization of bus {bus} is {pi}"
        return None

    def describe(self):
        return {"case": self.case, "round_size": self.round_size, "openings": self.n_open}


WORKLOADS = {w.name: w for w in (ScreenN1, Heuristic, Extensive, FixedConfig)}
