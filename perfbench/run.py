#!/usr/bin/env python3
"""Replay benchmark for the shiftpar simulator.

Builds the replay program (perfbench/replay.cc) and the simulator sources
from ../src with CMake, then replays one workload:

    python3 perfbench/run.py --workload azure_shift --seed 1 --seconds 10 --trace 0

Workloads, metrics, units and directions are listed in BENCHMARK.json at
the repository root. With --trace 0 the result carries the end-to-end
metrics, with --trace 1 the per-layer ones. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative to the repository root.

For the default seed the run's output digest must also equal the one in
perfbench/reference.json; `--update-reference` re-records those digests.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ["azure_shift", "mooncake_fp8", "dp64_azure"]
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build perfbench_replay; @return its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench_replay")


def reference_digest(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as f:
        return json.load(f)["digests"].get(workload)


def replay(binary, workload, seed, seconds, trace, expect=None):
    """Run perfbench_replay; @return (stdout lines, parsed result)."""
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-out",
           os.path.join(spans, f"{workload}-seed{seed}-trace{trace}.json")]
    if expect:
        cmd += ["--expect-digest", expect]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench_replay exited {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"{workload}: malformed result line")
    return lines, result


def digest_of(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[1]
    raise RuntimeError("perfbench_replay printed no digest")


def update_reference(binary):
    digests = {}
    for w in WORKLOADS:
        lines, result = replay(binary, w, DEFAULT_SEED, 1, 0)
        if not result["correct"]:
            raise RuntimeError(f"{w}: output check failed")
        digests[w] = digest_of(lines)
        print(f"{w}: {digests[w]}")
    with open(REFERENCE, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="re-record the default seed's output digests")
    args = ap.parse_args()
    if not args.update_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        binary = build()
        if args.update_reference:
            update_reference(binary)
            return 0
        lines, result = replay(binary, args.workload, args.seed,
                               args.seconds, args.trace,
                               reference_digest(args.workload, args.seed))
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
