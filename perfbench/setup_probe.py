"""One set-up as a command-line call pays it, in a fresh interpreter.

    python3 perfbench/setup_probe.py ROOT CASE TLF RISK

Imports ``otsd`` from ROOT/src, parses CASE, builds the grid at thermal limit
factor TLF and the N-1 contingency set, and with RISK=1 computes the
structural risk. Prints one JSON object with the CPU time of each step in
milliseconds and of the whole set-up, interpreter start excluded, in seconds.
"""

import time

T0 = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    root, case, tlf, risk = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    steps = {}

    t = time.process_time()
    import otsd
    steps["otsd.import_ms"] = time.process_time() - t

    t = time.process_time()
    raw = otsd.load_case(os.path.join(root, "data", case))
    steps["case_io.load_case_ms"] = time.process_time() - t

    t = time.process_time()
    grid = otsd.build_grid(raw, tlf=tlf)
    steps["grid.build_grid_ms"] = time.process_time() - t

    contingencies = otsd.n_minus_1_contingencies(grid)
    t = time.process_time()
    if risk:
        otsd.structural_risk(grid, contingencies)
    steps["dc_engine.structural_risk_ms"] = time.process_time() - t

    setup_s = time.process_time() - T0
    print(json.dumps({"setup_s": setup_s,
                      **{k: v * 1000.0 for k, v in steps.items()}}))


if __name__ == "__main__":
    main()
