"""Hand-computed checks of the reference model.

    python3 -m pytest perfbench/test_reference.py

All values are per-unit on a 100 MVA base. Flows follow ``b (theta_f -
theta_t)`` with ``B theta = p`` and the reference angle at zero.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref

HERE = Path(__file__).resolve().parent

# triangle 1-2-3 with a radial bus 4 hanging off bus 3; only branch 1 is rated
TRIANGLE = """
function mpc = triangle
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0;
  2 1 50 0;
  3 1 100 0;
  4 1 20 0;
];
mpc.gen = [
  1 170 0 0 0 1 100 1;
  3 999 0 0 0 1 100 0;
];
mpc.branch = [
  1 2 0 0.1 0 100 0 0 0 0 1;
  2 3 0 0.1 0 0 0 0 0 0 1;
  1 3 0 0.1 0 0 0 0 0 0 1;
  3 4 0 0.2 0 0 0 0 0 0 1;
];
"""

# bus 1 (reference) has load and no generation; all supply sits behind branch 1
STARVED = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 10 0;
  2 2 0 0;
  3 1 20 0;
];
mpc.gen = [
  2 15 0 0 0 1 100 1;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 0 0 1;
  1 3 0 0.1 0 0 0 0 0 0 0;
  1 3 0 0.1 0 0 0 0 0 0 1;
];
"""


@pytest.fixture
def tri():
    return ref.network_from_text(TRIANGLE, tlf=1.0)


def flows_of(screen, cid):
    return next(s for s in screen.states if s.cid == cid).flows


def test_parse_scales_generation_and_limits():
    net = ref.network_from_text(TRIANGLE, tlf=1.5)
    assert net.ref == 0
    np.testing.assert_allclose(net.pd, [0.0, 0.5, 1.0, 0.2])
    np.testing.assert_allclose(net.pg, [1.7, 0.0, 0.0, 0.0])  # status-0 unit dropped
    np.testing.assert_allclose(net.b, [10.0, 10.0, 10.0, 5.0])
    assert net.limit[0] == pytest.approx(1.5)
    assert all(math.isinf(v) for v in net.limit[1:])


def test_out_of_service_branch_keeps_its_row_number():
    net = ref.network_from_text(STARVED, tlf=1.0)
    assert net.branch_ids == [1, 3]
    np.testing.assert_allclose(net.pg, [0.0, 0.3, 0.0])  # 15 MW scaled to 30 MW of load


def test_base_and_meshed_trips(tri):
    res = ref.screen(tri, ())
    np.testing.assert_allclose(flows_of(res, None), [22 / 30, 7 / 30, 29 / 30, 0.2])
    np.testing.assert_allclose(flows_of(res, 1), [0.0, -0.5, 1.7, 0.2], atol=1e-12)
    np.testing.assert_allclose(flows_of(res, 2), [0.5, 0.0, 1.2, 0.2], atol=1e-12)
    np.testing.assert_allclose(flows_of(res, 3), [1.7, 1.2, 0.0, 0.2], atol=1e-12)
    assert res.violating == {3: frozenset({1})}


def test_radial_trip_strands_load_and_rebalances(tri):
    res = ref.screen(tri, ())
    state = next(s for s in res.states if s.cid == 4)
    assert state.sigma == pytest.approx(1.5 / 1.7)
    assert state.loss == pytest.approx(0.2)
    assert list(state.energized) == [True, True, True, False]
    np.testing.assert_allclose(state.flows, [2 / 3, 1 / 6, 5 / 6, 0.0], atol=1e-12)
    assert res.loss == {4: pytest.approx(0.2)}
    assert res.objective == pytest.approx(0.2)
    assert ref.structural_risk(tri) == pytest.approx(0.2)
    assert ref.bridges(tri, ()) == frozenset({4})


def test_opened_plan(tri):
    res = ref.screen(tri, (2,))
    assert res.base_connected and not res.violating
    assert res.loss == {1: pytest.approx(0.5), 3: pytest.approx(1.2), 4: pytest.approx(0.2)}
    assert res.objective == pytest.approx(1.9)
    np.testing.assert_allclose(flows_of(res, 2), flows_of(res, None))  # trip of an open branch
    assert ref.bridges(tri, (2,)) == frozenset({1, 3, 4})


def test_base_violation_and_disconnected_base(tri):
    assert None in ref.screen(tri, (3,)).violating  # radial 1-2-3-4 puts 1.7 on branch 1
    assert not ref.screen(tri, (4,)).base_connected


def test_best_plan_enumerates_small_opening_sets(tri):
    # () fails trip 3; (1,) costs 1.7 + 0.5 + 0.2; (2,) costs 1.9; the rest
    # overload the base case or disconnect a bus
    objective, plan = ref.best_plan(tri, max_open=2)
    assert plan == (2,)
    assert objective == pytest.approx(1.9)


def test_area_without_generation_loses_all_load():
    net = ref.network_from_text(STARVED, tlf=1.0)
    res = ref.screen(net, ())
    np.testing.assert_allclose(flows_of(res, None), [-0.3, 0.2])
    cut = next(s for s in res.states if s.cid == 1)
    assert cut.loss == pytest.approx(0.3) and cut.sigma == 0.0
    assert not cut.energized.any()
    np.testing.assert_allclose(cut.flows, [0.0, 0.0])
    leaf = next(s for s in res.states if s.cid == 3)
    assert leaf.loss == pytest.approx(0.2) and leaf.sigma == pytest.approx(1 / 3)
    np.testing.assert_allclose(leaf.flows, [-0.1, 0.0], atol=1e-12)
    assert ref.structural_risk(net) == pytest.approx(0.5)


def test_per_layer_table_matches_benchmark_json():
    from tracer import PER_LAYER
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_end_to_end_table_matches_benchmark_json():
    from run import END_TO_END
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
