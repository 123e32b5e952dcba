#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload taxi-window-replay --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark program from the checkout's sources into
.bench_build/perfbench (CMake, Release); later runs only rebuild what
changed. `--workload all` runs every workload BENCHMARK.json names. The
program generates
the workload's inputs from --seed, measures for about --seconds, checks its
outputs against a reference, and prints its measurements. This script keeps
the metrics BENCHMARK.json names (the end-to-end ones, or with --trace 1 the
per-layer ones; a per-layer metric a workload has no such layer for reads 0)
and prints them as the last line, one JSON object. It exits non-zero, without
a result line, when the build fails, the program fails, or an output check
fails. With --trace 1 the spans of the traced pass are written to
.bench_build/perfbench/traces/<workload>-seed<seed>.csv.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_workload(spec, workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.csv" % (workload, args.seed))]
    # A run measures for --seconds plus input generation and the output
    # checks; anything far beyond that is a hang, reported as a failed run.
    timeout = max(170, 3 * args.seconds + 60)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, timeout))
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        log("perfbench: %s printed no result (exit %d)" % (workload, done.returncode))
        return None
    measured = json.loads(lines[-1])
    if done.returncode != 0 or not measured["correct"]:
        log("perfbench: %s failed its output checks (exit %d)"
            % (workload, done.returncode))
        return None

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("perfbench: %s did not measure %s" % (workload, m["name"]))
                return None
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        log("  %-34s %18.6f %s" % (m["name"], got["value"], m["unit"]))
    return {"correct": True, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    results = []
    for name in names:
        log("perfbench: %s (seed %d, %gs, trace %d)"
            % (name, args.seed, args.seconds, args.trace))
        result = run_workload(spec, name, args)
        if result is None:
            return 1
        results.append(result)
    for result in results:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
