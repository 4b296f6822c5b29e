#!/usr/bin/env python3
"""Builds and runs the xtv benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library and the driver are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
the characterization cache lives there too. The driver's last output line
is a JSON object holding every metric it computed; this script keeps the
metrics BENCHMARK.json names for the mode (end_to_end for --trace 0,
per_layer for --trace 1), checks that none is missing, and prints the
result as its own last line. Exit status is the driver's, or 1 when the
build or the metric check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configured tree re-runs cmake itself when a CMakeLists.txt changed.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "xtv_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 1

    # Relative to ROOT: the serve daemon's Unix socket lives under it, and
    # socket paths are limited to about 100 bytes.
    work_dir = os.path.relpath(build_dir, ROOT)
    driver = os.path.join(build_dir, "xtv_perfbench")
    warm = subprocess.run([driver, "--warm-cells", "--work-dir", work_dir],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(warm.stdout, end="")
    if warm.returncode != 0:
        log("cell characterization failed")
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("driver printed no result (exit %d)" % done.returncode)
        return done.returncode or 1

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for m in wanted:
        if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]:
            missing.append(m["name"] + " (unit)")
    if missing:
        log("metrics missing from the driver's result: " + ", ".join(missing))
        return 1
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
