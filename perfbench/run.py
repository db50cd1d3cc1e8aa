#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scale_plain --seed 1 --seconds 10 --trace 0

The harness and its own copy of the library build under $CARGO_TARGET_DIR
(default .bench_build) in the checkout; the first call configures and
builds, later calls only rebuild what changed.  Build output goes to
stderr, so the last line of stdout is the harness's JSON result.  The exit
code is the harness's, or 1 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each invocation must end within 180 s; the harness itself aims at
# --seconds plus a few seconds of correctness runs.
HARNESS_TIMEOUT_S = 175


def build(build_dir):
    """Configure (once) and build the harness; returns its path or None."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(min(3, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--golden-dir", os.path.join(ROOT, "bench")]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%s.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return proc.returncode if proc.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
