#!/usr/bin/env python3
"""Record a bench as the median and spread of repeated runs.

Usage:

    python3 tools/bench_repeat.py --runs 5 --out BENCH_kernels.json \\
        -- ./build/bench_microbench_kernels threads=1,2,4

Runs the bench command `--runs` times, each with `--json <tmp>` appended,
and writes one flat record (the bench::JsonReport shape): every numeric
key holds the median over the runs, and every timing key (`*_seconds`,
`*_s`, with or without a `_t<N>` thread suffix) also gets `<key>_min` and
`<key>_max`.  Non-numeric keys must agree across runs.  `repeats` records
the run count.

With `--only REGEX --into FILE`, only the keys matching REGEX are taken
from the runs: the keys of FILE that match REGEX are dropped, the new ones
appended, and the rest of FILE kept as it was (re-recording one section of
a record).  No third-party dependencies.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

TIMING_RE = re.compile(r"_(seconds|s)(_t\d+)?$")


def run_once(command, path):
    subprocess.run(command + ["--json", path], check=True,
                   stdout=subprocess.DEVNULL)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate(records):
    out = {}
    for key in records[0]:
        values = [r.get(key) for r in records]
        if all(is_number(v) for v in values):
            out[key] = statistics.median(values)
            if TIMING_RE.search(key):
                out[key + "_min"] = min(values)
                out[key + "_max"] = max(values)
        elif all(v == values[0] for v in values):
            out[key] = values[0]
        else:
            sys.exit("bench_repeat: key %r differs across runs: %r"
                     % (key, values))
    out["repeats"] = len(records)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", required=True)
    parser.add_argument("--only", help="regex of the keys to record")
    parser.add_argument("--into", help="existing record to update")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("need a bench command and --runs >= 1")
    if (args.only is None) != (args.into is None):
        parser.error("--only and --into go together")

    with tempfile.TemporaryDirectory() as tmp:
        records = [run_once(command, os.path.join(tmp, "run%d.json" % i))
                   for i in range(args.runs)]
    record = aggregate(records)
    if args.only is not None:
        only = re.compile(args.only)
        with open(args.into, encoding="utf-8") as f:
            base = json.load(f)
        merged = {k: v for k, v in base.items() if not only.search(k)}
        merged.update({k: v for k, v in record.items() if only.search(k)})
        record = merged
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
