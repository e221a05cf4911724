#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
run-to-run spread: the distance between the first and third quartile of
its values, as a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload live-load --runs 10 [--first-seed 1]

Run from the repository root. Exits 1 if a run fails or a spread other
than setup_s's exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    values = {name: [] for name in bounds}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = None
        if run.returncode != 0 or not result or not result["correct"]:
            print(f"seed {seed}: run failed (exit {run.returncode})")
            print(run.stdout[-2000:], run.stderr[-2000:])
            ok = False
            continue
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={row[k]:.5g}" for k in bounds))
        for k in bounds:
            values[k].append(row[k])
    for name, vals in values.items():
        if len(vals) < 4:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        third = bounds[name] / 3
        flag = "" if spread <= third or name == "setup_s" else "  <-- above a third of its bound"
        if flag:
            ok = False
        print(f"{name}: median {med:.5g} spread {spread:.4f} bound {bounds[name]}"
              f" (third {third:.4f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
