#!/usr/bin/env python3
"""Command-line contracts of the example binaries that no gtest can reach:
output files a grid writes, exit statuses on rejected input, and the
committed reference configuration files.  Runs as a ctest (`cli_test`):

    python3 tests/cli_test.py <dir holding the built examples and benches>
"""

import os
import subprocess
import sys
import tempfile
import unittest

BIN_DIR = ""
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PAPER = [os.path.join(SRC_DIR, "configs", "paper", name)
         for name in ("topology.conf", "application.conf", "timers.conf")]


def run(binary, *args):
    return subprocess.run([os.path.join(BIN_DIR, binary), *args],
                          capture_output=True, text=True, timeout=300)


class SweepObsDir(unittest.TestCase):
    def test_storage_grid_writes_one_trace_per_case(self):
        with tempfile.TemporaryDirectory() as out:
            proc = run("sweep", "--grid=storage", "--threads=2",
                       "--obs-dir=" + out)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            traces = sorted(f for f in os.listdir(out)
                            if f.endswith(".trace.json"))
            self.assertEqual(traces,
                             sorted(f"case{i}.trace.json" for i in range(24)))


class Hc3iSim(unittest.TestCase):
    def test_paper_configs_run_clean(self):
        proc = run("hc3i_sim", *PAPER)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("Table-1-style census", proc.stdout)

    def test_unbounded_campaign_exits_2(self):
        # Three kills into cluster 1 one second before the 10 h horizon:
        # the queue cannot drain, so the plan is rejected up front instead
        # of silently dropping kills at the quiesce bound.
        with tempfile.NamedTemporaryFile("w", suffix=".conf") as plan:
            plan.write("[burst]\ncluster = 1\nkills = 3\nat = 35999s\n"
                       "window = 0\n")
            plan.flush()
            proc = run("hc3i_sim", *PAPER, "--campaign=" + plan.name)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("[burst] #1 (cluster 1)", proc.stderr)
        self.assertIn("the same-cluster queue cannot drain", proc.stderr)


class MalformedFlags(unittest.TestCase):
    """A flag the parser rejects is a usage error (exit 2), not a crash."""

    def test_sweep_list_for_scalar_flag_exits_2(self):
        proc = run("sweep", "--nodes=4,8")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("flag --nodes is not a whole number: 4,8", proc.stderr)

    def test_scale_federation_non_number_exits_2(self):
        proc = run("scale_federation", "--clusters=x")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("flag --clusters is not a whole number: x", proc.stderr)

    def test_sweep_fractional_count_exits_2(self):
        proc = run("sweep", "--nodes=4.7", "--clusters=2", "--minutes=1",
                   "--seeds=1")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("flag --nodes is not a whole number: 4.7", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_counts_below_one_exit_2(self):
        cases = [("sweep", "--nodes=0"), ("sweep", "--minutes=-5"),
                 ("scale_federation", "--clusters=-1"),
                 ("scale_federation", "--nodes=0"),
                 ("scale_federation", "--minutes=0"),
                 ("bench_fig8_timer1_sweep", "--seeds=0"),
                 ("bench_table1_messages", "--seeds=-2"),
                 ("protocol_comparison", "--hours=0"),
                 ("protocol_comparison", "--mtbf-min=-3"),
                 ("code_coupling_pipeline", "--hours=0"),
                 ("code_coupling_pipeline", "--clc-min=-30")]
        for binary, flag in cases:
            with self.subTest(binary=binary, flag=flag):
                proc = run(binary, flag)
                self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
                name = flag[2:flag.index("=")]
                self.assertIn(f"flag --{name} wants a count from 1 to ",
                              proc.stderr)
                self.assertNotIn("nan", proc.stdout)

    def test_huge_counts_exit_2(self):
        proc = run("bench_table1_messages", "--seeds=99999999999999999999")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("is not a whole number", proc.stderr)
        # Minutes beyond a simulated year would overflow SimTime.
        for binary in ("sweep", "scale_federation"):
            with self.subTest(binary=binary):
                proc = run(binary, "--minutes=525601")
                self.assertEqual(proc.returncode, 2,
                                 proc.stdout + proc.stderr)
                self.assertIn("flag --minutes wants a count from 1 to "
                              "525600, got 525601", proc.stderr)
        # Hours likewise stop at a simulated year.
        for binary in ("protocol_comparison", "code_coupling_pipeline"):
            with self.subTest(binary=binary):
                proc = run(binary, "--hours=8761")
                self.assertEqual(proc.returncode, 2,
                                 proc.stdout + proc.stderr)
                self.assertIn("flag --hours wants a count from 1 to "
                              "8760, got 8761", proc.stderr)

    def test_unknown_protocol_exits_2(self):
        proc = run("protocol_comparison", "--protocol=bogus")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unknown --protocol: bogus", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_other_mains_report_flag_errors_as_usage_errors(self):
        for binary, flag in [("quickstart", "--seed=x"),
                             ("bench_table1_messages", "--seeds=x")]:
            with self.subTest(binary=binary):
                proc = run(binary, flag)
                self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
                self.assertIn("is not a whole number: x", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: cli_test.py <bin dir>")
    BIN_DIR = sys.argv.pop(1)
    unittest.main()
