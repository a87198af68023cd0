"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces functions and methods of the package by
name, so renaming or deleting one of them breaks every traced benchmark run
before its first operation. This runs the tracer as ``perfbench/run.py``
does, over one operation of each layer it reads (a screen with openings
among them), then reduces and writes its spans.
"""

import importlib.util
import json
from pathlib import Path

import otsd
from otsd import SwitchConfig, n_minus_1_contingencies
from otsd.dc_engine import SecurityAnalyzer
from otsd.grid import ContingencySet
from otsd.milp_model import fixed_config_flows

from conftest import load_grid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# per-layer metrics that perfbench/run.py measures itself, outside the tracer
MEASURED_BY_RUN = {"otsd.import_ms", "case_io.load_case_ms", "grid.build_grid_ms",
                   "dc_engine.structural_risk_ms", "trace.ops_per_s", "trace.overhead_pct"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target(tmp_path):
    module = _tracer_module()
    grid = load_grid("case14_ieee.m")
    cons = n_minus_1_contingencies(grid)
    trips = ContingencySet(cases=(cons.by_id(1), cons.by_id(7)))
    tracer = module.Tracer(otsd)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer._targets]
    tracer.install()
    try:
        tracer.run_op("screen", lambda: SecurityAnalyzer(grid, cons).analyze(
            SwitchConfig.all_closed()))
        # a configuration with openings takes the updated-PTDF path
        opened = tracer.run_op("screen-open", lambda: SecurityAnalyzer(grid, cons).analyze(
            SwitchConfig.with_open([3, 10])))
        tracer.run_op("heuristic", lambda: otsd.heuristic.solve(grid, cons))
        tracer.run_op("fixed-config", lambda: fixed_config_flows(
            grid, SwitchConfig.all_closed(), trips))
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    expected = {name for name, _, _ in module.PER_LAYER} - MEASURED_BY_RUN
    metrics = tracer.metrics(4)
    assert set(metrics) == expected
    assert opened.loss_of_load and metrics["dc_engine.bridge_trips"] > 0
    tracer.write(tmp_path / "spans.jsonl")  # as a traced run ends
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"open": [3, 10]} in [s["note"] for s in spans if s["name"] == "dc_engine.analyze"]
