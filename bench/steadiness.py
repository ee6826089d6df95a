"""Steadiness report: run each workload over several seeds and print the spread.

    python3 bench/steadiness.py --runs 10 [--workloads optimize,evaluate]

Each run is a fresh ``bench/run.py --trace 0`` process with its own seed.
For every end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json.  A spread under a third of the bound is marked
steady; the bounds in BENCHMARK.json are set from these figures.  The
spread of the uncalibrated figures from each run's report line is printed
beside them, to show what the calibration removes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    summary = {}
    for workload in args.workloads.split(","):
        results, reports = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, report = one_run(workload, seed, args.seconds)
            results.append(res)
            reports.append(report)
            print("%s seed %d: correct=%s failed=%d/%d" % (
                workload, seed, res["correct"], res["failed"], res["attempted"]), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": rel, "bound": m["bound"],
                "steady": rel < m["bound"] / 3.0, "values": values,
            }
            print("  %-14s median %12.6g %-4s q1 %12.6g q3 %12.6g spread %6.2f%% bound %5.1f%% %s" % (
                m["name"], med, m["unit"], q1, q3, 100 * rel, 100 * m["bound"],
                "steady" if rel < m["bound"] / 3.0 else "NOT STEADY"), flush=True)
            if m["name"] in reports[0]["raw"]:
                raw = spread([r["raw"][m["name"]] for r in reports])
                rows[m["name"]]["uncalibrated_spread"] = raw[3]
                print("  %-14s uncalibrated median %12.6g spread %6.2f%%" % (
                    "", raw[0], 100 * raw[3]), flush=True)
        summary[workload] = {
            "all_correct": all(r["correct"] for r in results), "metrics": rows,
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
