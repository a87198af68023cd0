"""Run the benchmark grid of (case, tlf, algorithm) rows and print the table.

Mirrors the published computation-results layout: per row the runtime,
objective, and opening count. Rows that exceed the time budget are marked
with the configured limit. Usage:

    python scripts/run_benchmarks.py [--time-limit 600] [--jobs 1]
"""

import argparse
import csv
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from otsd.cli import RunConfig, cmd_bench

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "data")

ROWS = [
    ("case14_ieee.m", 1.0),
    ("case24_ieee_rts.m", 1.0),
    ("case30_ieee.m", 1.2),
    ("case30_ieee.m", 1.0),
    ("case57_ieee.m", 2.0),
    ("case57_ieee.m", 1.5),
    ("case57_ieee.m", 1.2),
    ("case57_ieee.m", 1.0),
    ("case118_ieee.m", 1.5),
    ("case118_ieee.m", 1.25),
    ("case200_activ.m", 1.0),  # skipped unless the file is provided
    ("case200_activ.m", 0.55),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--time-limit", type=float, default=600.0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--algos", default="heuristic",
                    help="comma list: heuristic,extensive,security-only")
    args = ap.parse_args()

    # a private temporary manifest: concurrent runs never share one, and a
    # killed run leaves nothing in the source tree
    fd, manifest_path = tempfile.mkstemp(prefix="otsd_bench_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case", "tlf", "algo"])
            for case, tlf in ROWS:
                path = os.path.join(DATA, case)
                if not os.path.exists(path):
                    print(f"skipping {case} (not bundled; see data/README.md)",
                          file=sys.stderr)
                    continue
                for algo in args.algos.split(","):
                    writer.writerow([path, tlf, algo])
        return cmd_bench(manifest_path, RunConfig(case="", time_limit=args.time_limit),
                         jobs=args.jobs)
    finally:
        os.unlink(manifest_path)


if __name__ == "__main__":
    sys.exit(main())
