#!/usr/bin/env python3
"""Builds and runs the Cactis closed-loop service benchmark.

    python3 perfbench/run.py --workload write_contended --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/ (and the Cactis libraries it compiles from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's result JSON.
Traced runs (--trace 1) write their spans next to the build.

`--workload all` runs every workload in turn, each printing its own
report and result line, and exits non-zero if any of them did.

Extra arguments after the four above (--write-latency-us) are passed to
the benchmark binary; the benchmark's own tests use them.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_mostly", "write_contended", "derived_rebuild")
# The binary must finish inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Cactis sources not found next to perfbench/ (expected src/)")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    out = build_dir()
    build(out)
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run(out, workload, args, extra)
        if code != 0:
            rc = code if code > 0 else 1  # negative: killed by a signal
    sys.exit(rc)


def run(out, workload, args, extra):
    cmd = [os.path.join(out, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (workload, args.seed))]
    cmd += extra
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
