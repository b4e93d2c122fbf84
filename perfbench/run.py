#!/usr/bin/env python3
"""Builds the PARINDA benchmark program from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. The first run configures and builds it in
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the JSON result.

BENCHMARK.json is the one list of metric names and units. The program prints
the metrics it measured; this script checks them against that list (the
end-to-end list with --trace 0, the per-layer list with --trace 1), reports
a per-layer metric of a layer that does no work on the workload as 0, and
prints the result with the metrics in the list's order. The exit code is the
program's, or 1 when the build fails or a metric is missing, unknown or in
another unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "parinda_perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "parinda_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"perfbench: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def complete_metrics(reported, trace):
    """The reported metrics in BENCHMARK.json order, or None on a mismatch."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in spec}
    ok = True
    for name in reported:
        if name not in names:
            print(f"perfbench: metric {name} is not in BENCHMARK.json",
                  file=sys.stderr)
            ok = False
    metrics = {}
    for metric in spec:
        got = reported.get(metric["name"])
        if got is None and trace:
            got = {"value": 0, "unit": metric["unit"]}
        if got is None or got["unit"] != metric["unit"]:
            print(f"perfbench: metric {metric['name']} is missing or not in "
                  f"{metric['unit']}", file=sys.stderr)
            ok = False
            continue
        metrics[metric["name"]] = got
    return metrics if ok else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    done = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = complete_metrics(result["metrics"], args.trace)
    if metrics is None:
        return 1
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
