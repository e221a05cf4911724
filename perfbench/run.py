#!/usr/bin/env python3
"""Build and run the timewheel benchmark.

    python3 perfbench/run.py --workload sim-gossip|live-load|live-failover \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds perfbench/bin/main.exe with
dune (the first build compiles the library and takes a few minutes),
then runs one workload and passes its output through. The last line of
standard output is the result object; provenance-stamped rows go to
perfbench/out/runs.jsonl and traced runs write their spans to
perfbench/out/trace-<workload>-<seed>.jsonl.

Exit codes: 0 when every output check passed, 1 when one failed, 2 on a
usage error or a failure to start the cluster, 3 when the program does
not build here, 4 when a run overran its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
SOURCES = ["dune-project", "lib", "bin", os.path.join("perfbench", "src"),
           os.path.join("perfbench", "bin")]


def src_hash():
    """SHA-256 over the sources the benchmark builds, so a row names the
    code it measured even where there is no git history."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths.append(top)
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, f) for f in sorted(files))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["sim-gossip", "live-load", "live-failover"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "bin")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 3

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bin/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SRC_HASH"] = src_hash()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run overran its time limit", file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
