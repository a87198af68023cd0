"""Layered benchmark of the otsd package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and the cases are read from ``data/``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it records the machine and the
thread settings of the run. See perfbench/README.md for the workloads.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads; inherited by the probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import CASES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"  # span files of traced runs
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
# Operation and set-up times are CPU seconds of the (single-threaded)
# process. On a shared box the wall clock also counts time that other
# processes held the core; the run record gives the wall time beside it.
CLOCK = time.process_time

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("objective_sum", "p.u."), ("peak_rss_mb", "MB")]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import otsd from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "otsd" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        fail(f"no otsd sources under {src} or no data/ beside them")
    sys.path.insert(0, str(src))
    import otsd
    if Path(otsd.__file__).resolve().parent != (src / "otsd").resolve():
        fail(f"imported otsd from {otsd.__file__}, not from {src}")
    return otsd


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_samples(workload) -> list[dict]:
    """Fresh-interpreter set-up of the workload's probe instance, several times."""
    case, tlf, risk = workload.setup
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), CASES[case],
           repr(tlf), "1" if risk else "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_phase(workload, seconds: float, first_round: int, min_rounds: int,
                tracer=None):
    """Whole rounds of operations until ``seconds`` of them have run.

    Round inputs are drawn between rounds, off the clock. Returns the
    operations run as (round, key, seconds, output or exception), the
    measured time and the wall time it took.
    """
    records = []
    elapsed = wall = 0.0
    r = first_round
    while elapsed < seconds or r - first_round < min_rounds:
        ops = workload.round(r)
        start, wall_start = CLOCK(), time.perf_counter()
        for op in ops:
            t = CLOCK()
            try:
                out = op.run() if tracer is None else tracer.run_op(op.key, op.run)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            records.append((r, op.key, CLOCK() - t, out))
        elapsed += CLOCK() - start
        wall += time.perf_counter() - wall_start
        r += 1
    return records, elapsed, wall


def op_times(records) -> dict:
    """Milliseconds of each completed operation, by instance key."""
    times: dict = {}
    for _, key, dt, out in records:
        if not isinstance(out, Exception):
            times.setdefault(key, []).append(dt * 1000.0)
    return times


def op_ms_p50(workload, records) -> float:
    times = op_times(records)
    if workload.solve:
        return statistics.geometric_mean([statistics.median(v) for v in times.values()])
    return statistics.median(t for v in times.values() for t in v)


def details(workload, records) -> dict:
    """Per-instance figures for the run record: solve times and plans, or the
    spread of operation times."""
    times = op_times(records)
    if workload.solve:
        plans = {key: out for _, key, _, out in records if not isinstance(out, Exception)}
        return {f"{n}@{tlf:g}": {"ms": statistics.median(times[(n, tlf)]),
                                 "status": plans[(n, tlf)].status.value,
                                 "objective": plans[(n, tlf)].objective,
                                 "openings": plans[(n, tlf)].openings}
                for n, tlf in sorted(times)}
    flat = sorted(t for v in times.values() for t in v)
    deciles = statistics.quantiles(flat, n=10) if len(flat) > 1 else flat * 9
    return {"ops": len(flat), "p50_ms": statistics.median(flat), "p90_ms": deciles[8]}


def check_all(workload, records) -> tuple[bool, int]:
    correct, failed = True, 0
    for _, key, _, out in records:
        if isinstance(out, Exception):
            failed += 1
            print(f"perfbench: {key} failed: {out!r}", file=sys.stderr)
            continue
        err = workload.check(key, out)
        if err is not None:
            correct = False
            print(f"perfbench: check failed: {err}", file=sys.stderr)
    return correct, failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    otsd = load_package()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")

    workload = WORKLOADS[args.workload](ROOT / "data", args.seed)
    env = environment(args)
    env["inputs"] = workload.describe()
    probes = setup_samples(workload)

    workload.bind(otsd)
    workload.warm_up()

    if not args.trace:
        records, elapsed, wall = timed_phase(workload, args.seconds, 0, workload.min_rounds)
        env["timed_cpu_s"], env["timed_wall_s"] = elapsed, wall
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = [rec for rec in records if not isinstance(rec[3], Exception)]
        first = {}
        for r, key, _, out in done:
            if r < workload.min_rounds:
                first.setdefault(key, workload.objective(out))
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "ops_per_s": len(done) / elapsed,
            "op_ms_p50": op_ms_p50(workload, records),
            "objective_sum": sum(first.values()),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        tracer = Tracer(otsd)
        plain, traced = [], []
        spent = {False: 0.0, True: 0.0}
        r = 0
        # untraced and traced rounds alternate, so that drift in the speed of
        # the machine weighs on both rates alike
        while spent[False] + spent[True] < args.seconds or not traced:
            on = r % 2 == 1
            if on:
                tracer.install()
            try:
                recs, secs, _ = timed_phase(workload, 0.0, r, 1, tracer if on else None)
            finally:
                tracer.uninstall()
            (traced if on else plain).extend(recs)
            spent[on] += secs
            r += 1
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        records = plain + traced
        plain_rate = len(plain) / spent[False]
        traced_rate = len(traced) / spent[True]
        metrics = tracer.metrics(len(traced))
        for name in ("otsd.import_ms", "case_io.load_case_ms", "grid.build_grid_ms",
                     "dc_engine.structural_risk_ms"):
            metrics[name] = statistics.median(p[name] for p in probes)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: metrics[name] for name in units}

    correct, failed = check_all(workload, records)
    env["rounds"] = len({r for r, *_ in records})
    env["detail"] = details(workload, records)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
