#!/usr/bin/env python3
"""Runs one benchmark workload N times and prints the spread of each metric.

    python3 perfbench/stability.py --workload interactive_sdss --runs 10
    python3 perfbench/stability.py --workload advise_sdss2000 --runs 2 \\
        --trace 1 --same-seed

Each run lasts run_seconds of BENCHMARK.json and gets its own seed (1, 2,
..., N), or seed 1 every time with --same-seed. For every metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, which is what the end-to-end bounds
in BENCHMARK.json are set from. With --same-seed it also checks that every count metric repeats
exactly. The exit code is 1 when a run fails, reports correct = false, or a
count differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(RUN))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    results = []
    ok = True
    for i in range(args.runs):
        seed = 1 if args.same_seed else i + 1
        result = run_once(args.workload, seed, seconds, args.trace)
        if result is None or not result["correct"]:
            print(f"run {i} (seed {seed}) failed", file=sys.stderr)
            ok = False
            continue
        results.append(result)
        values = " ".join(f"{name} {m['value']:.6g}"
                          for name, m in result["metrics"].items())
        print(f"run {i} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}; {values}", file=sys.stderr)
    if len(results) < 2:
        return 1

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{len(results)} runs of {args.workload}, {seconds} s each; "
          f"failed share(s): {sorted(shares)}")
    print(f"{'metric':28} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28} {first['unit']:6} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.2%}")
        if args.same_seed and first["unit"] == "count" and len(set(values)) > 1:
            print(f"  count {name} differs between runs: {values}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
