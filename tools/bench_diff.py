#!/usr/bin/env python3
"""Compare a fresh bench JSON against a committed record, report only.

Usage:

    python3 tools/bench_diff.py FRESH.json RECORD.json [--only REGEX]

RECORD is a `tools/bench_repeat.py` record: every timing key holds the
median of repeated runs and carries `<key>_min` / `<key>_max`, the spread
of those runs.  That spread is the key's noise band.  For every numeric key
present in both files (optionally filtered by `--only`), the report prints
the fresh value, the recorded median, the fresh/median ratio and where the
fresh value falls:

    in band   within [min, max] of the recorded runs
    above     larger than every recorded run (slower, for a timing key)
    below     smaller than every recorded run
    -         the record has no band for this key (not a timing key)

String keys that differ (say `instance`) are listed first, because a fresh
run of another instance or size is not comparable with the record.  The
tool only reports: it exits 0 whatever it finds, and non-zero only when it
cannot read its inputs.  No third-party dependencies.
"""

import argparse
import json
import re
import sys


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit("bench_diff: cannot read %s: %s" % (path, err))
    if not isinstance(data, dict):
        sys.exit("bench_diff: %s is not a flat JSON object" % path)
    return data


def place(value, low, high):
    if low is None or high is None:
        return "-"
    if value > high:
        return "above"
    if value < low:
        return "below"
    return "in band"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("fresh")
    parser.add_argument("record")
    parser.add_argument("--only", help="regex of the keys to compare")
    args = parser.parse_args()
    fresh = load(args.fresh)
    record = load(args.record)
    only = re.compile(args.only) if args.only else None

    for key in fresh:
        if key in record and not is_number(fresh[key]) \
                and fresh[key] != record[key]:
            print("note: %s is %r here, %r in the record" %
                  (key, fresh[key], record[key]))

    rows = []
    for key, value in fresh.items():
        if key.endswith(("_min", "_max")) or not is_number(value):
            continue
        if only and not only.search(key):
            continue
        median = record.get(key)
        if not is_number(median):
            continue
        low, high = record.get(key + "_min"), record.get(key + "_max")
        ratio = value / median if median else float("nan")
        rows.append((key, value, median, ratio, place(value, low, high)))

    if not rows:
        print("bench_diff: no numeric key in common")
        return
    width = max(len(r[0]) for r in rows)
    print("%-*s %14s %14s %8s  %s" % (width, "key", "fresh", "record",
                                       "ratio", "band"))
    for key, value, median, ratio, where in rows:
        print("%-*s %14.6g %14.6g %8.3f  %s" % (width, key, value, median,
                                                 ratio, where))
    counts = {}
    for row in rows:
        counts[row[4]] = counts.get(row[4], 0) + 1
    print("summary: " + ", ".join("%d %s" % (n, k)
                                  for k, n in sorted(counts.items())))


if __name__ == "__main__":
    main()
