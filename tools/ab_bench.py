#!/usr/bin/env python3
"""Interleaved A/B wall-time comparison of two builds of scale_federation.

Usage:

    python3 tools/ab_bench.py --a=<build dir> --b=<build dir> --pairs=N
                              [--variant=plain|faulty|overlap|storage]

Each pair runs `scale_federation --dump-counters` once from each build dir,
alternating which side goes first so slow drift of the host hits both sides
alike.  Every dump is byte-compared against the variant's golden under
bench/; any mismatch fails the run (exit 1), because a faster build that
computes something else is not a speedup.  The report prints per-side
median and min wall time and the B/A ratio of the medians.

A single run on a shared host is anecdote: compare medians over at least
5 pairs before claiming a change in speed.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

VARIANTS = {
    "plain": ([], "golden_counters_scale.txt"),
    "faulty": (["--faulty"], "golden_counters_scale_faulty.txt"),
    "overlap": (["--overlap"], "golden_counters_scale_overlap.txt"),
    "storage": (["--storage", "--overlap"], "golden_counters_scale_storage.txt"),
}


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(build: str, flags, golden: bytes, label: str) -> float:
    exe = os.path.join(build, "scale_federation")
    start = time.perf_counter()
    proc = subprocess.run(
        [exe, "--dump-counters", *flags], stdout=subprocess.PIPE, check=False
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{label}: {exe} exited {proc.returncode}")
    if proc.stdout != golden:
        raise RuntimeError(f"{label}: --dump-counters output differs from golden")
    return wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="build dir of side A (baseline)")
    ap.add_argument("--b", required=True, help="build dir of side B (change)")
    ap.add_argument("--pairs", type=int, default=5, help="A/B pairs to run")
    ap.add_argument("--variant", choices=sorted(VARIANTS), default="plain")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    flags, golden_name = VARIANTS[args.variant]
    with open(os.path.join(repo_root(), "bench", golden_name), "rb") as f:
        golden = f.read()

    walls = {"A": [], "B": []}
    builds = {"A": args.a, "B": args.b}
    try:
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                label = f"pair {i + 1} side {side}"
                walls[side].append(run_once(builds[side], flags, golden, label))
            print(
                f"pair {i + 1}: A {walls['A'][-1]:.3f} s  B {walls['B'][-1]:.3f} s",
                flush=True,
            )
    except (OSError, RuntimeError) as err:
        print(f"ab_bench: FAIL: {err}", file=sys.stderr)
        return 1

    print(f"variant {args.variant}, {args.pairs} pairs, every dump == {golden_name}")
    for side in ("A", "B"):
        w = walls[side]
        print(
            f"  {side}: median {statistics.median(w):.3f} s  min {min(w):.3f} s"
            f"  ({builds[side]})"
        )
    ratio = statistics.median(walls["B"]) / statistics.median(walls["A"])
    print(f"  B/A median wall ratio {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
