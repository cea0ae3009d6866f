#!/usr/bin/env python3
"""Builds and runs the losstomo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
benchmark (library sources from src/ plus this directory) into
.bench_build/perfbench; later calls rebuild only what changed.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Deterministic values (accuracy figures, refactorization count, checkpoint
size, input checksum) are kept in a ledger under .bench_build/perfbench,
keyed by a hash of the code (src/ and this directory, without the .md
documents) as well as the workload, seed and length.  A later run of the
same code at the same workload, seed and length that disagrees with the
ledger is reported as not correct; the first values recorded are kept.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LEDGER = os.path.join(BUILD, "ledger")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
CONTRACT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "monitor.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_hash():
    """Hash of every file under src/ and this directory except the .md
    documents: the code's identity, so that deterministic values are compared
    only between runs of the same code."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and d != "__pycache__")
            for name in sorted(n for n in filenames if not n.endswith(".md")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
                digest.update(b"\0")
    return digest.hexdigest()[:16]


def check_ledger(args, result):
    """Returns the deterministic values that differ from an earlier run of
    the same code."""
    key = "%s-seed%d-s%g-%s" % (args.workload, args.seed, args.seconds,
                                source_hash())
    path = os.path.join(LEDGER, key + ".json")
    current = dict(result.get("deterministic", {}))
    current["input_checksum"] = result.get("input_checksum")
    recorded = {}
    if os.path.isfile(path):
        with open(path) as f:
            recorded = json.load(f)
    differing = sorted(k for k in current
                       if k in recorded and recorded[k] != current[k])
    merged = dict(current)
    merged.update(recorded)
    os.makedirs(LEDGER, exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(BUILD, "run")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    differing = check_ledger(args, result)
    for key in differing:
        print("problem    %s differs from an earlier run at this seed" % key)
    if differing:
        result["correct"] = False
    print(json.dumps({k: result[k] for k in CONTRACT_KEYS}))


if __name__ == "__main__":
    main()
