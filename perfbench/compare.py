#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json bounds.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are files holding the benchmark's stdout of one or more
runs of one workload (the result line of each run is found by its
"metrics" key). For every end-to-end metric the script compares the
median of HEAD with the median of BASE and flags a regression when HEAD
is worse by more than the metric's bound, as a share of BASE's median.
It prints one row per metric and exits 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def results(path):
    """Every result JSON line in a file of benchmark output."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{") and '"metrics"' in line:
                out.append(json.loads(line))
    if not out:
        raise SystemExit("compare.py: no results in " + path)
    return out


def regressions(spec, base, head):
    """Yields (name, base median, head median, worse share, bound, flagged)."""
    for m in spec["end_to_end"]:
        name = m["name"]
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        h = statistics.median(r["metrics"][name]["value"] for r in head)
        if b == 0:
            worse = 0.0
        elif m["better"] == "lower":
            worse = (h - b) / b
        else:
            worse = (b - h) / b
        yield name, b, h, worse, m["bound"], worse > m["bound"]


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    spec = load_spec()
    flagged = []
    for name, b, h, worse, bound, bad in regressions(
            spec, results(argv[1]), results(argv[2])):
        print("%-26s base %12.4f  head %12.4f  worse %+7.3f  bound %.3f  %s"
              % (name, b, h, worse, bound, "REGRESSION" if bad else "ok"))
        if bad:
            flagged.append(name)
    if flagged:
        print("regressed: " + ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
