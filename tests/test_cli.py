import csv
import io
import json

import pytest

from otsd import dc_engine, heuristic, milp_model, n_minus_1_contingencies
from otsd.cli import EXIT_INFEASIBLE, RunConfig, cmd_bench, cmd_check, cmd_solve, main

from conftest import case_path, load_grid

MINI_CASE = """
function mpc = toy4
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0   0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 100 0 0 0 1 1 0 0 1 1.1 0.9;
    3 1 50  0 0 0 1 1 0 0 1 1.1 0.9;
    4 1 50  0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 200 0 0 0 1 100 1 250 0;
];
mpc.branch = [
    1 2 0.0 0.01 0 150 0 0 0 0 1 -30 30;
    1 3 0.0 0.01 0 150 0 0 0 0 1 -30 30;
    2 3 0.0 0.01 0 150 0 0 0 0 1 -30 30;
    3 4 0.0 0.01 0 100 0 0 0 0 1 -30 30;
];
"""

BC_INF_CASE = """
function mpc = bcinf
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0   0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 100 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 100 0 0 0 1 100 1 150 0;
];
mpc.branch = [
    1 2 0.0 0.01 0 50 0 0 0 0 1 -30 30;
];
"""

PINCH_CASE = """
function mpc = pinch
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0   0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 100 0 0 0 1 1 0 0 1 1.1 0.9;
    3 1 0   0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 100 0 0 0 1 100 1 150 0;
];
mpc.branch = [
    1 2 0.0 0.1 0 70 0 0 0 0 1 -30 30;
    1 2 0.0 0.1 0 70 0 0 0 0 1 -30 30;
    1 3 0.0 0.5 0 26 0 0 0 0 1 -30 30;
    3 2 0.0 0.5 0 26 0 0 0 0 1 -30 30;
];
"""


@pytest.fixture
def mini_case(tmp_path):
    path = tmp_path / "toy4.m"
    path.write_text(MINI_CASE)
    return str(path)


def run_solve(config):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_solve(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_solve_heuristic_json(mini_case):
    code, out, err = run_solve(RunConfig(case=mini_case, algorithm="heuristic"))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "feasible"
    assert doc["case"] == "toy4"
    assert "objective" in doc and "structural_risk" in doc


def test_solve_security_only_case14():
    config = RunConfig(case=case_path("case14_ieee.m"), tlf=2.0,
                       algorithm="security-only")
    code, out, _ = run_solve(config)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "feasible"
    assert doc["openings"] == []


def test_solve_extensive_toy(mini_case):
    code, out, _ = run_solve(RunConfig(case=mini_case, algorithm="extensive",
                                       time_limit=60))
    assert code == 0
    assert json.loads(out)["status"] == "optimal"


def test_exit_code_infeasible(tmp_path):
    path = tmp_path / "pinch.m"
    path.write_text(PINCH_CASE)
    code, out, _ = run_solve(RunConfig(case=str(path), algorithm="heuristic"))
    assert code == 2
    assert json.loads(out)["status"] in ("infeasible", "infeasible-within-horizon")
    assert "openings" not in json.loads(out)


def test_exit_code_base_case_infeasible(tmp_path):
    path = tmp_path / "bcinf.m"
    path.write_text(BC_INF_CASE)
    code, out, _ = run_solve(RunConfig(case=str(path), algorithm="heuristic"))
    assert code == 3
    assert json.loads(out)["status"] == "base-case-infeasible"


def test_exit_code_parse_error(tmp_path):
    path = tmp_path / "broken.m"
    path.write_text("mpc.baseMVA = 100;\n")
    code, _, err = run_solve(RunConfig(case=str(path)))
    assert code == 1
    assert "error" in err


def test_seeded_runs_byte_identical(mini_case):
    config = RunConfig(case=mini_case, algorithm="heuristic", seed=7)
    _, out1, _ = run_solve(config)
    _, out2, _ = run_solve(RunConfig(case=mini_case, algorithm="heuristic", seed=7))
    assert out1 == out2


def test_csv_summary_format(mini_case):
    code, out, _ = run_solve(RunConfig(case=mini_case, output_format="csv-summary"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,tlf,status,objective,openings,time_ms"
    assert lines[1].startswith("toy4,1,feasible,")


def test_check_reports_structural_risk(mini_case):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_check(RunConfig(case=mini_case), out=out, err=err)
    assert code == 0
    text = out.getvalue()
    assert "structural risk" in text
    assert "objective" in text


def test_check_with_open_branch_shows_deenergization(mini_case):
    out = io.StringIO()
    # with the tie open, the remaining feeder legs become bridges, so their
    # trips strand load and the report carries de-energization notes
    code = cmd_check(RunConfig(case=mini_case, open_branches=(3,)), out=out)
    assert code == 0
    assert "loss of load" in out.getvalue() or "de-energized" in out.getvalue()


def test_all_closed_commands_factorize_once(mini_case, monkeypatch):
    """The structural risk and the screen of an all-closed configuration
    share one analyzer, so its PTDF is built once per command."""
    calls = []
    ptdf = dc_engine._ptdf
    monkeypatch.setattr(dc_engine, "_ptdf", lambda *a: calls.append(1) or ptdf(*a))
    assert cmd_check(RunConfig(case=mini_case, tlf=2.0), out=io.StringIO()) == 0
    assert len(calls) == 1
    calls.clear()
    code, _, _ = run_solve(RunConfig(case=mini_case, tlf=2.0, algorithm="security-only"))
    assert code == 0 and len(calls) == 1


def test_all_closed_commands_screen_once(mini_case, monkeypatch):
    """With nothing open, the screen that gives the structural risk is also
    the reported one."""
    calls = []
    analyze = dc_engine.SecurityAnalyzer.analyze
    monkeypatch.setattr(dc_engine.SecurityAnalyzer, "analyze",
                        lambda *a: calls.append(1) or analyze(*a))
    assert cmd_check(RunConfig(case=mini_case, tlf=2.0), out=io.StringIO()) == 0
    assert len(calls) == 1
    calls.clear()
    code, _, _ = run_solve(RunConfig(case=mini_case, tlf=2.0, algorithm="security-only"))
    assert code == 0 and len(calls) == 1


def test_solves_screen_the_all_closed_grid_once(mini_case, monkeypatch):
    """The structural risk in a solve document is the solver's own bound,
    so each solve factorizes the all-closed grid once. Every other
    configuration's PTDF is an update of that factorization."""
    calls = []
    ptdf = dc_engine._ptdf
    monkeypatch.setattr(dc_engine, "_ptdf", lambda *a: calls.append(1) or ptdf(*a))
    for algorithm in ("heuristic", "extensive"):
        calls.clear()
        code, out, _ = run_solve(RunConfig(case=mini_case, tlf=2.0, algorithm=algorithm))
        assert code == 0 and len(calls) == 1, algorithm
        assert json.loads(out)["structural_risk"] == json.loads(out)["objective"]

    case118 = case_path("case118_ieee.m")
    calls.clear()
    opened = RunConfig(case=case118, tlf=1.25, open_branches=(116, 120, 144))
    assert cmd_check(opened, out=io.StringIO()) == 0
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run_solve(RunConfig(case=case118, tlf=1.25, algorithm="security-only",
                                       open_branches=(116, 120, 144)))
    assert code == EXIT_INFEASIBLE and len(calls) == 1
    assert json.loads(out)["objective"] == pytest.approx(3.11)

    calls.clear()
    grid = load_grid("case118_ieee.m", 1.35)
    result = heuristic.solve(grid, n_minus_1_contingencies(grid))
    assert result.status.is_feasible and result.openings
    assert len(calls) == 1

    # the heuristic removes unnecessary openings by screening on its own
    # analyzer: no opening-minimization program is built
    def no_program(*args, **kwargs):
        raise AssertionError("opening-minimization program built")

    monkeypatch.setattr(milp_model, "remove_unnecessary_openings", no_program)
    calls.clear()
    grid = load_grid("case57_ieee.m", 0.9)
    result = heuristic.solve(grid, n_minus_1_contingencies(grid))
    assert result.status.is_feasible and result.openings == [6, 7, 22, 31]
    assert len(calls) == 1


def test_bench_runs_manifest(tmp_path, mini_case):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "case,tlf,algo\n"
        f"{mini_case},1.0,heuristic\n"
        f"{mini_case},2.0,security-only\n"
        "missing.m,1.0,heuristic\n")
    out, err = io.StringIO(), io.StringIO()
    code = cmd_bench(str(manifest), RunConfig(case=""), jobs=2, out=out, err=err)
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 4  # header + three rows
    assert lines[0].startswith("case,tlf,algo,status,")
    assert any("error" in line for line in lines[1:])
    assert "missing.m" in err.getvalue()


def test_bench_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("case,tlf,algo\n")
    out = io.StringIO()
    code = cmd_bench(str(manifest), RunConfig(case=""), out=out)
    assert code == 0
    assert out.getvalue().strip().count("\n") == 0  # header only


def test_bench_output_is_deterministic(tmp_path):
    manifest = tmp_path / "one.csv"
    manifest.write_text(f"case,tlf,algo\n{case_path('case14_ieee.m')},1.0,heuristic\n")
    runs = []
    for _ in range(2):
        out = io.StringIO()
        assert cmd_bench(str(manifest), RunConfig(case=""), out=out) == 0
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        for row in rows:
            del row["time_ms"]
        runs.append(rows)
    assert runs[0] == runs[1]
    assert list(runs[0][0]) == ["case", "tlf", "algo", "status", "objective",
                                "openings", "structural_risk"]


def test_main_entry_point(mini_case, capsys):
    code = main(["solve", "--case", mini_case, "--algo", "heuristic"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "feasible"


def test_exit_codes_total_over_statuses():
    from otsd.cli import _EXIT_BY_STATUS
    from otsd.results import SolveStatus
    assert set(_EXIT_BY_STATUS) == set(SolveStatus)


CHECK_118_AT_125 = """\
objective: 3.11  structural risk: 2.99
violating contingencies: 6
  contingency 7: 96(+0.6281)  de-energized buses: [9, 10]
  contingency 9: 96(+0.6281)  de-energized buses: [10]
  contingency 31: 33(+0.1694)
  contingency 38: 33(+0.1909)
  contingency 96: 66(+0.0399), 67(+0.0399)
  contingency 118: 108(+0.0633)
  contingency 113: de-energization, loss of load 0.06
  contingency 133: de-energization, loss of load 0.21
  contingency 146: de-energization, loss of load 0.12
  contingency 177: de-energization, loss of load 0.68
  contingency 183: de-energization, loss of load 1.84
  contingency 184: de-energization, loss of load 0.2
"""


def test_check_text_with_three_openings():
    out = io.StringIO()
    config = RunConfig(case=case_path("case118_ieee.m"), tlf=1.25, open_branches=(116, 120, 144))
    assert cmd_check(config, out=out) == 0
    first, rest = out.getvalue().split("\n", 1)
    assert first.endswith("case118_ieee.m  tlf: 1.25  open: [116, 120, 144]")
    assert rest == CHECK_118_AT_125
