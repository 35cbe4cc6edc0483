#!/usr/bin/env python3
"""The benchmark's own tests: the regression gate and the steadiness report.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then:

* negative test: runs write_contended and derived_rebuild with the device
  model's 100 us block write and again with it doubled (a doctored slow
  device). compare.py must flag commit_p50_us as a regression on both,
  or the gate could not catch a slower commit path;
* steadiness: every normal run of every workload reports its throughput
  in the first and the last quarter of the measured window; a cost that
  grows with run length (log growth without a checkpoint, version
  chains) shows as a falling ratio. The test fails when, over a
  workload's seeds, the median of last quarter / first quarter is below
  0.8. The median keeps one run slowed by another process on the host
  from failing the test; a cost that grows with run length slows every
  seed.

Takes about four minutes on a 4-CPU host.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

SEEDS = (101, 102, 103)
SECONDS = "8"
MIN_LAST_QUARTER_SHARE = 0.8


def run(workload, seed, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise AssertionError("%s seed %d failed (%d):\n%s%s"
                             % (workload, seed, p.returncode, p.stdout, p.stderr))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"], p.stdout
    return p.stdout


def quarters(stdout):
    for line in stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])["quarter_ops_s"]
    raise AssertionError("no detail line in output")


def main():
    spec = compare.load_spec()
    failures = []
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in ("read_mostly", "write_contended", "derived_rebuild"):
            # read_mostly gets the steadiness check only, to keep the
            # test short.
            doctor = workload != "read_mostly"
            base = os.path.join(tmp, workload + ".base")
            slow = os.path.join(tmp, workload + ".slow")
            shares = []
            with open(base, "w") as fb, open(slow, "w") as fs:
                for seed in SEEDS:
                    out = run(workload, seed)
                    fb.write(out)
                    q = quarters(out)
                    shares.append(q[3] / q[0])
                    print("%s seed %d: quarter throughput %s"
                          % (workload, seed, ", ".join("%.1f" % x for x in q)))
                    if doctor:
                        fs.write(run(workload, seed, ["--write-latency-us", "200"]))
            share = statistics.median(shares)
            print("%s: last quarter / first quarter, median %.3f"
                  % (workload, share))
            if share < MIN_LAST_QUARTER_SHARE:
                failures.append("%s: last quarter throughput %.3f of the first "
                                "(median over seeds), below %.2f"
                                % (workload, share, MIN_LAST_QUARTER_SHARE))
            if not doctor:
                continue
            flagged = {name: (worse, bad) for name, _, _, worse, _, bad in
                       compare.regressions(spec, compare.results(base),
                                           compare.results(slow))}
            worse, bad = flagged["commit_p50_us"]
            print("%s: doubled write latency makes commit_p50_us %+.1f%% (%s)"
                  % (workload, 100 * worse, "flagged" if bad else "NOT flagged"))
            if not bad:
                failures.append(workload + ": slow device not flagged on commit_p50_us")
    for f in failures:
        print("FAIL: " + f)
    print("ok" if not failures else "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
