"""Command-line front end: solve, security check, and benchmark runs."""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import dc_engine, heuristic, milp_model
from .case_io import ResultDocument, load_case, write_result
from .errors import OtsdError
from .grid import Grid, ProbabilityModel, SwitchConfig, build_grid, n_minus_1_contingencies
from .results import SolveResult, SolveStatus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_BASE_CASE_INFEASIBLE = 3
EXIT_TIMEOUT = 4

_EXIT_BY_STATUS = {
    SolveStatus.OPTIMAL: EXIT_OK,
    SolveStatus.FEASIBLE: EXIT_OK,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.INFEASIBLE_WITHIN_HORIZON: EXIT_INFEASIBLE,
    SolveStatus.BASE_CASE_INFEASIBLE: EXIT_BASE_CASE_INFEASIBLE,
    SolveStatus.TIMEOUT: EXIT_TIMEOUT,
}


@dataclass
class RunConfig:
    case: str
    tlf: float = 1.0
    algorithm: str = "heuristic"  # heuristic | extensive | security-only
    nh_0: int = 1
    nh_max: int = 4
    tolerance: float = 1e-6
    prob_convention: ProbabilityModel = ProbabilityModel.UNIT
    time_limit: float | None = None
    output_format: str = "json"
    output: str | None = None
    seed: int | None = None
    open_branches: tuple[int, ...] = ()

    def validate(self) -> None:
        if self.algorithm not in ("heuristic", "extensive", "security-only"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.output_format not in ("json", "csv-summary"):
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.tlf <= 0:
            raise ValueError("tlf must be positive")
        if not 0 <= self.nh_0 <= self.nh_max:
            raise ValueError("need 0 <= nh0 <= nh-max")


def _load_grid(config: RunConfig) -> Grid:
    raw = load_case(config.case)
    return build_grid(raw, tlf=config.tlf)


def _run(config: RunConfig) -> tuple[SolveResult, Grid, float]:
    """Run the selected algorithm. The structural risk is the objective of
    the all-closed screen, which every algorithm makes and reports as the
    result's ``bound``."""
    grid = _load_grid(config)
    contingencies = n_minus_1_contingencies(grid, config.prob_convention)

    if config.algorithm == "heuristic":
        params = heuristic.HeuristicParams(
            nh_0=config.nh_0, nh_max=config.nh_max, tolerance=config.tolerance,
            time_limit=config.time_limit)
        result = heuristic.solve(grid, contingencies, params)
    elif config.algorithm == "extensive":
        result = milp_model.solve_extensive(grid, contingencies,
                                            time_limit=config.time_limit)
    else:  # security-only: the screen of --open reuses the all-closed one when nothing is open
        analyzer = dc_engine.SecurityAnalyzer(grid, contingencies, config.tolerance)
        all_closed = analyzer.analyze(SwitchConfig.all_closed())
        t0 = time.monotonic()
        cfg = SwitchConfig.with_open(config.open_branches)
        report = analyzer.analyze(cfg) if cfg.open_branches else all_closed
        elapsed = (time.monotonic() - t0) * 1000.0
        status = SolveStatus.FEASIBLE if report.clean else SolveStatus.INFEASIBLE
        result = SolveResult(
            status=status, config=cfg, objective=report.total_objective,
            bound=all_closed.total_objective, openings=sorted(cfg.open_branches),
            loss_of_load=dict(report.loss_of_load),
            timings_ms={"security_analysis": elapsed})
    return result, grid, result.bound


def _document(config: RunConfig, result: SolveResult, sr: float) -> ResultDocument:
    import os
    doc = ResultDocument(
        case=os.path.splitext(os.path.basename(config.case))[0],
        tlf=config.tlf,
        status=result.status.value,
        objective=result.objective,
        openings=result.openings if result.status.is_feasible else None,
        loss_of_load=dict(result.loss_of_load),
        structural_risk=sr,
        timings_ms={} if config.seed is not None else dict(result.timings_ms),
        iterations=result.iterations,
    )
    return doc


def cmd_solve(config: RunConfig, out=None, err=None) -> int:
    """Run the selected algorithm and emit a result document.

    With --seed the timing fields are zeroed so repeated runs produce
    byte-identical documents (wall-clock goes to stderr instead).
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        config.validate()
        result, grid, sr = _run(config)
    except (OtsdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    doc = _document(config, result, sr)
    text = write_result(doc, config.output_format)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    if config.seed is not None:
        print(f"run time: {sum(result.timings_ms.values()):.1f} ms", file=err)
    return _EXIT_BY_STATUS[result.status]


def cmd_check(config: RunConfig, out=None, err=None) -> int:
    """Security-analyze one configuration and print the violation report."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        config.validate()
        grid = _load_grid(config)
        contingencies = n_minus_1_contingencies(grid, config.prob_convention)
        cfg = SwitchConfig.with_open(config.open_branches)
        analyzer = dc_engine.SecurityAnalyzer(grid, contingencies, config.tolerance)
        all_closed = analyzer.analyze(SwitchConfig.all_closed())
        sr = all_closed.total_objective
        report = analyzer.analyze(cfg) if cfg.open_branches else all_closed
    except (OtsdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR

    print(f"case: {config.case}  tlf: {config.tlf:g}  open: "
          f"{sorted(cfg.open_branches) or '[]'}", file=out)
    print(f"objective: {report.total_objective:.6g}  structural risk: {sr:.6g}", file=out)
    if report.clean:
        print("no violating contingencies", file=out)
    else:
        print(f"violating contingencies: {len(report.violating_contingencies)}", file=out)
        for cid, detail in sorted(report.violating_contingencies.items(),
                                  key=lambda kv: (kv[0] is not None, kv[0] or 0)):
            label = "base case" if cid is None else f"contingency {cid}"
            branches = ", ".join(f"{eid}(+{over:.4f})"
                                 for eid, over in sorted(detail.violated_branches.items()))
            extra = ""
            if detail.loss_of_load:
                extra = f"  loss of load: {detail.loss_of_load:.6g}"
            if detail.de_energized:
                extra += f"  de-energized buses: {sorted(detail.de_energized)}"
            print(f"  {label}: {branches}{extra}", file=out)
    for cid, ll in sorted(report.loss_of_load.items()):
        if cid not in report.violating_contingencies:
            print(f"  contingency {cid}: de-energization, loss of load {ll:.6g}",
                  file=out)
    return EXIT_OK


def _bench_row(row: dict, defaults: RunConfig) -> dict:
    config = RunConfig(
        case=row["case"], tlf=float(row["tlf"]), algorithm=row["algo"],
        nh_0=defaults.nh_0, nh_max=defaults.nh_max, tolerance=defaults.tolerance,
        prob_convention=defaults.prob_convention,
        time_limit=defaults.time_limit, seed=defaults.seed)
    start = time.monotonic()
    try:
        config.validate()
        result, _, sr = _run(config)
        elapsed = (time.monotonic() - start) * 1000.0
        time_cell = f"{elapsed:.1f}"
        if result.status is SolveStatus.TIMEOUT:
            time_cell = f">{config.time_limit:g}s" if config.time_limit else time_cell
        return {
            "case": row["case"], "tlf": row["tlf"], "algo": row["algo"],
            "status": result.status.value,
            "objective": "" if result.objective is None else f"{result.objective:.6g}",
            "openings": "" if not result.status.is_feasible
                        else ";".join(str(e) for e in result.openings),
            "structural_risk": f"{sr:.6g}",
            "time_ms": time_cell,
        }
    except (OtsdError, OSError, ValueError, KeyError) as exc:
        return {
            "case": row.get("case", "?"), "tlf": row.get("tlf", "?"),
            "algo": row.get("algo", "?"), "status": "error",
            "objective": "", "openings": "", "structural_risk": "",
            "time_ms": "", "error": str(exc),
        }


def cmd_bench(manifest_path: str, defaults: RunConfig, jobs: int = 1,
              out=None, err=None) -> int:
    """Run a manifest of (case, tlf, algo) rows and emit a summary table."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with open(manifest_path, newline="") as fh:
            rows = [row for row in csv.DictReader(fh)]
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    fields = ["case", "tlf", "algo", "status", "objective", "openings",
              "structural_risk", "time_ms"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    if rows:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            results = list(pool.map(lambda r: _bench_row(r, defaults), rows))
        for row, res in zip(rows, results):
            if res["status"] == "error":
                print(f"row {row}: {res.get('error', 'failed')}", file=err)
            writer.writerow(res)
    out.write(buf.getvalue())
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="otsd",
                                description="Transmission switching with controlled "
                                            "post-contingency de-energization")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--case", required=True, help="MATPOWER-style case file")
        sp.add_argument("--tlf", type=float, default=1.0,
                        help="thermal limit scaling factor (default 1.0)")
        sp.add_argument("--tolerance", type=float, default=1e-6)
        sp.add_argument("--prob-convention", choices=["unit", "uniform"],
                        default="unit")
        sp.add_argument("--open", default="",
                        help="comma-separated branch ids to open")

    sp = sub.add_parser("solve", help="find a switching configuration")
    common(sp)
    sp.add_argument("--algo", choices=["heuristic", "extensive", "security-only"],
                    default="heuristic")
    sp.add_argument("--nh0", type=int, default=1)
    sp.add_argument("--nh-max", type=int, default=4)
    sp.add_argument("--time-limit", type=float, default=None, help="seconds")
    sp.add_argument("--format", choices=["json", "csv-summary"], default="json")
    sp.add_argument("--output", default=None)
    sp.add_argument("--seed", type=int, default=None,
                    help="deterministic mode: timings zeroed in output")

    sp = sub.add_parser("check", help="security-analyze one configuration")
    common(sp)

    sp = sub.add_parser("bench", help="run a manifest of case,tlf,algo rows")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--time-limit", type=float, default=None)
    sp.add_argument("--nh0", type=int, default=1)
    sp.add_argument("--nh-max", type=int, default=4)
    sp.add_argument("--tolerance", type=float, default=1e-6)
    sp.add_argument("--prob-convention", choices=["unit", "uniform"], default="unit")
    sp.add_argument("--seed", type=int, default=None)
    return p


def _parse_open(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(tok) for tok in text.split(","))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("solve", "check"):
        config = RunConfig(
            case=args.case, tlf=args.tlf,
            algorithm=getattr(args, "algo", "security-only"),
            nh_0=getattr(args, "nh0", 1), nh_max=getattr(args, "nh_max", 4),
            tolerance=args.tolerance,
            prob_convention=ProbabilityModel(args.prob_convention),
            time_limit=getattr(args, "time_limit", None),
            output_format=getattr(args, "format", "json"),
            output=getattr(args, "output", None),
            seed=getattr(args, "seed", None),
            open_branches=_parse_open(args.open),
        )
        if args.command == "solve":
            return cmd_solve(config)
        return cmd_check(config)
    defaults = RunConfig(
        case="", nh_0=args.nh0, nh_max=args.nh_max, tolerance=args.tolerance,
        prob_convention=ProbabilityModel(args.prob_convention),
        time_limit=args.time_limit, seed=args.seed)
    return cmd_bench(args.manifest, defaults, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
