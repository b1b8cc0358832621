#!/usr/bin/env python3
"""Self-test of the replay benchmark.

    python3 perfbench/selftest.py [--seconds 1]

Checks that every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+,
that every workload reports exactly its listed metrics with their listed
units (end-to-end with --trace 0, per-layer with --trace 1), that every
run passes its output check, and that the output digest is the same in
two runs of the same seed. Exits non-zero on the first failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} --trace {trace}: exit {proc.returncode}")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")),
                  None)
    return lines, json.loads(lines[-1]), digest


def check_metrics(workload, trace, result, spec):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} --trace {trace}: output check failed")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} --trace {trace}: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m["unit"] != want[name]:
            fail(f"{workload}: {name} unit {m['unit']} != {want[name]}")
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} value is not a number")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        if not NAME.fullmatch(name):
            fail(f"bad metric or workload name {name!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")

    for w in (w["name"] for w in bench["workloads"]):
        _, e2e, d0 = run(w, args.seed, args.seconds, 0)
        check_metrics(w, 0, e2e, bench["end_to_end"])
        lines, layers, d1 = run(w, args.seed, args.seconds, 1)
        check_metrics(w, 1, layers, bench["per_layer"])
        if not any(l.startswith("largest isolated-replay share:")
                   for l in lines):
            fail(f"{w}: traced run names no largest layer")
        if d0 is None or d0 != d1:
            fail(f"{w}: digest {d0} then {d1} across two runs")
        print(f"selftest: {w}: ok (digest {d0})")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
