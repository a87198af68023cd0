"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of the ``otsd``
modules with wrappers that record one span each (name, start, end, parent
span) in memory; ``uninstall`` puts the originals back. Callers inside the
package reach these functions through module or class attributes, so the
wrappers see every internal call as well as the benchmark's own. Each
benchmark operation is a root span, so the spans of one operation share its
root. Span times are CPU times of the process, like the benchmark's own.
Spans are reduced to the per-layer metrics, and written out, once the traced
phase is over.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("otsd.import_ms", "ms", "lower"),
    ("case_io.load_case_ms", "ms", "lower"),
    ("grid.build_grid_ms", "ms", "lower"),
    ("dc_engine.structural_risk_ms", "ms", "lower"),
    ("graph_ops.find_bridges_ms", "ms/op", "lower"),
    ("graph_ops.find_bridges_calls", "1/op", "lower"),
    ("graph_ops.energized_component_ms", "ms/op", "lower"),
    ("graph_ops.energized_component_calls", "1/op", "lower"),
    ("graph_ops.hop_ms", "ms/op", "lower"),
    ("graph_ops.separating_cutset_ms", "ms/op", "lower"),
    ("graph_ops.separating_cutset_calls", "1/op", "lower"),
    ("dc_engine.analyze_ms", "ms/op", "lower"),
    ("dc_engine.analyze_self_ms", "ms/op", "lower"),
    ("dc_engine.analyze_calls", "1/op", "lower"),
    ("dc_engine.contingency_state_calls", "1/op", "lower"),
    ("dc_engine.contingency_state_ms", "ms/op", "lower"),
    ("dc_engine.bridge_trips", "1/op", "lower"),
    ("dc_engine.contingencies_screened", "1/op", "lower"),
    ("milp_model.build_ms", "ms/op", "lower"),
    ("milp_model.programs", "1/op", "lower"),
    ("milp_model.blocks", "1/op", "lower"),
    ("milp_model.separation_rounds", "1/op", "lower"),
    ("milp_model.cutsets_added", "1/op", "lower"),
    ("milp_model.separate_ms", "ms/op", "lower"),
    ("milp_model.resolve_ratio", "ratio", "lower"),
    ("milp_model.reduce_violations_ms", "ms/op", "lower"),
    ("milp_model.reduce_violations_calls", "1/op", "lower"),
    ("milp_model.remove_unnecessary_openings_ms", "ms/op", "lower"),
    ("milp_model.remove_unnecessary_openings_calls", "1/op", "lower"),
    ("backend.solve_calls", "1/op", "lower"),
    ("backend.solve_ms", "ms/op", "lower"),
    ("backend.highs_ms", "ms/op", "lower"),
    ("backend.matrix_ms", "ms/op", "lower"),
    ("backend.vars_max", "count", "lower"),
    ("backend.constraints_max", "count", "lower"),
    ("backend.free_binaries_max", "count", "lower"),
    ("backend.mip_nodes", "1/op", "lower"),
    ("backend.limit_hits", "1/op", "lower"),
    ("heuristic.solve_ms", "ms/op", "lower"),
    ("heuristic.self_ms", "ms/op", "lower"),
    ("heuristic.outer_iters", "1/op", "lower"),
    ("heuristic.inner_iters", "1/op", "lower"),
    ("heuristic.working_set_max", "count", "lower"),
    ("heuristic.switchable_max", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

_NAME, _START, _END, _PARENT, _NOTE = range(5)


def _highs_note(args, kwargs, res):
    """Model size and search effort of one ``scipy.optimize.milp`` call."""
    integrality = kwargs["integrality"]
    bounds = kwargs["bounds"]
    constraints = kwargs.get("constraints") or []
    free = (integrality == 1) & (bounds.lb != bounds.ub)
    return {
        "vars": len(integrality),
        "constraints": sum(con.A.shape[0] for con in constraints),
        "free_binaries": int(free.sum()),
        "nodes": int(getattr(res, "mip_node_count", 0) or 0),
        "limit_hit": res.status == 1,
    }


def _iterations_note(args, kwargs, res):
    log = res.iterations
    return {
        "outer": max((e.get("outer", 0) for e in log), default=0),
        "inner": sum(1 for e in log if e.get("phase") == "reduce_violations"),
        "working": max((e.get("n_working", 0) for e in log), default=0),
        "switchable": max((e.get("n_switchable", 0) for e in log), default=0),
    }


class Tracer:
    def __init__(self, otsd):
        gops, dce = otsd.graph_ops, otsd.dc_engine
        mm, be = otsd.milp_model, otsd.backend
        # (owner, attribute, span name, note taken from (args, kwargs, result))
        self._targets = [
            (gops, "find_bridges", "graph_ops.find_bridges", None),
            (gops, "energized_component", "graph_ops.energized_component", None),
            (gops, "hop", "graph_ops.hop", None),
            (gops, "separating_cutset", "graph_ops.separating_cutset", None),
            (dce.SecurityAnalyzer, "analyze", "dc_engine.analyze",
             lambda a, kw, res: (a[0], a[1])),
            (dce.SecurityAnalyzer, "contingency_state", "dc_engine.contingency_state", None),
            (mm, "build_base_case", "milp_model.build_base_case", None),
            (mm.OtsdModel, "add_contingency_block", "milp_model.add_contingency_block", None),
            (mm.OtsdModel, "separate_cutsets", "milp_model.separate_cutsets",
             lambda a, kw, res: len(res)),
            (mm.OtsdModel, "solve_with_separation", "milp_model.solve_with_separation", None),
            (mm, "reduce_violations", "milp_model.reduce_violations", None),
            (mm, "remove_unnecessary_openings", "milp_model.remove_unnecessary_openings", None),
            (be.ScipyHighsBackend, "solve", "backend.solve", None),
            (be, "milp", "backend.highs", _highs_note),
            (otsd.heuristic, "solve", "heuristic.solve", _iterations_note),
        ]
        self._find_bridges = gops.find_bridges
        self._originals: list[tuple] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.process_time()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[_END] = time.process_time()
                stack.pop()
            if note is not None:
                span[_NOTE] = note(args, kwargs, res)
            return res
        return traced

    def install(self) -> None:
        for owner, attr, name, note in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def run_op(self, key, fn):
        """Run one benchmark operation as the root span of everything it calls."""
        return self._wrap("op", fn, lambda a, kw, res: repr(key))()

    def write(self, path) -> None:
        """All spans as JSON lines: index, name, parent index, times in ms, note."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                if name == "dc_engine.analyze":
                    note = {"open": sorted(note[1].open_branches)}
                fh.write(json.dumps({
                    "i": i, "name": name, "parent": parent,
                    "start_ms": (start - t0) * 1000.0, "dur_ms": (end - start) * 1000.0,
                    "note": note}) + "\n")

    # -- reduction ------------------------------------------------------------

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation sums, maxima and ratios over every recorded span."""
        ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _, _ in self.spans:
            ms[name] += (end - start) * 1000.0
            calls[name] += 1

        def per_op(value: float) -> float:
            return value / ops

        out: dict[str, float] = {}
        for fn in ("find_bridges", "energized_component", "separating_cutset"):
            out[f"graph_ops.{fn}_ms"] = per_op(ms[f"graph_ops.{fn}"])
            out[f"graph_ops.{fn}_calls"] = per_op(calls[f"graph_ops.{fn}"])
        out["graph_ops.hop_ms"] = per_op(ms["graph_ops.hop"])

        graph_in_analyze = sum(
            (s[_END] - s[_START]) * 1000.0 for i, s in enumerate(self.spans)
            if s[_NAME].startswith("graph_ops.") and self._under(i, "dc_engine.analyze"))
        analyses = [s[_NOTE] for s in self.spans if s[_NAME] == "dc_engine.analyze"]
        bridge_trips = screened = 0
        for analyzer, config in analyses:
            closed = frozenset(analyzer.grid.branch_ids()) - config.open_branches
            bridges = self._find_bridges(analyzer.grid, closed)
            screened += len(analyzer.contingencies)
            bridge_trips += sum(1 for c in analyzer.contingencies
                                if c.tripped <= bridges)
        out["dc_engine.analyze_ms"] = per_op(ms["dc_engine.analyze"])
        out["dc_engine.analyze_self_ms"] = per_op(ms["dc_engine.analyze"] - graph_in_analyze)
        out["dc_engine.analyze_calls"] = per_op(calls["dc_engine.analyze"])
        out["dc_engine.contingency_state_calls"] = per_op(calls["dc_engine.contingency_state"])
        out["dc_engine.contingency_state_ms"] = per_op(ms["dc_engine.contingency_state"])
        out["dc_engine.bridge_trips"] = per_op(bridge_trips)
        out["dc_engine.contingencies_screened"] = per_op(screened)

        solves_per_program: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[_NAME] == "backend.solve" and s[_PARENT] >= 0 \
                    and self.spans[s[_PARENT]][_NAME] == "milp_model.solve_with_separation":
                solves_per_program[s[_PARENT]] += 1
        resolves = sum(n - 1 for n in solves_per_program.values())
        out["milp_model.build_ms"] = per_op(ms["milp_model.build_base_case"]
                                            + ms["milp_model.add_contingency_block"])
        out["milp_model.programs"] = per_op(calls["milp_model.build_base_case"])
        out["milp_model.blocks"] = per_op(calls["milp_model.add_contingency_block"])
        out["milp_model.separation_rounds"] = per_op(calls["milp_model.separate_cutsets"])
        out["milp_model.cutsets_added"] = per_op(sum(
            s[_NOTE] for s in self.spans if s[_NAME] == "milp_model.separate_cutsets"))
        out["milp_model.separate_ms"] = per_op(ms["milp_model.separate_cutsets"])
        out["milp_model.resolve_ratio"] = (resolves / calls["backend.solve"]
                                           if calls["backend.solve"] else 0.0)
        for fn in ("reduce_violations", "remove_unnecessary_openings"):
            out[f"milp_model.{fn}_ms"] = per_op(ms[f"milp_model.{fn}"])
            out[f"milp_model.{fn}_calls"] = per_op(calls[f"milp_model.{fn}"])

        highs = [s[_NOTE] for s in self.spans if s[_NAME] == "backend.highs"]
        out["backend.solve_calls"] = per_op(calls["backend.solve"])
        out["backend.solve_ms"] = per_op(ms["backend.solve"])
        out["backend.highs_ms"] = per_op(ms["backend.highs"])
        out["backend.matrix_ms"] = per_op(ms["backend.solve"] - ms["backend.highs"])
        out["backend.vars_max"] = max((h["vars"] for h in highs), default=0)
        out["backend.constraints_max"] = max((h["constraints"] for h in highs), default=0)
        out["backend.free_binaries_max"] = max((h["free_binaries"] for h in highs), default=0)
        out["backend.mip_nodes"] = per_op(sum(h["nodes"] for h in highs))
        out["backend.limit_hits"] = per_op(sum(h["limit_hit"] for h in highs))

        solves = [(i, s) for i, s in enumerate(self.spans) if s[_NAME] == "heuristic.solve"]
        heur_ids = {i for i, _ in solves}
        child_ms = sum((s[_END] - s[_START]) * 1000.0 for s in self.spans
                       if s[_PARENT] in heur_ids)
        notes = [s[_NOTE] for _, s in solves]
        out["heuristic.solve_ms"] = per_op(ms["heuristic.solve"])
        out["heuristic.self_ms"] = per_op(ms["heuristic.solve"] - child_ms)
        out["heuristic.outer_iters"] = per_op(sum(n["outer"] for n in notes))
        out["heuristic.inner_iters"] = per_op(sum(n["inner"] for n in notes))
        out["heuristic.working_set_max"] = max((n["working"] for n in notes), default=0)
        out["heuristic.switchable_max"] = max((n["switchable"] for n in notes), default=0)
        return out
