#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10]

Runs perfbench/run.py once per seed (seeds 1 to runs) on each workload, one
run at a time, and prints for every end-to-end metric of BENCHMARK.json the
median and the spread: the distance between the first and third quartile of
the values, as Python's statistics.quantiles(values, n=4) gives them, as a
share of the median.  A spread is flagged when it exceeds the metric's
bound, and noted when it exceeds a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False)
            if done.returncode != 0:
                sys.exit("run failed: %s seed %d" % (workload, seed))
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print("%s seed %d: correct=%s failed=%d" %
                      (workload, seed, result["correct"], result["failed"]))
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print("%s (%d runs)" % (workload, len(runs)))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            s = spread(values)
            flag = ""
            if s > bound:
                flag = "  OVER BOUND"
                ok = False
            elif s > bound / 3:
                flag = "  above bound/3"
            print("  %-18s median %-12.6g spread %6.2f%%  bound %4.1f%%%s" %
                  (name, statistics.median(values), 100 * s, 100 * bound,
                   flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
