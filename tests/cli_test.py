#!/usr/bin/env python3
"""Command-line contracts of the example binaries that no gtest can reach:
output files a grid writes, exit statuses on rejected input, and the
committed reference configuration files.  Runs as a ctest (`cli_test`):

    python3 tests/cli_test.py <dir holding the built sweep, scale_federation
                               and hc3i_sim>
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
        self.assertIn("flag --nodes is not a number: 4,8", proc.stderr)

    def test_scale_federation_non_number_exits_2(self):
        proc = run("scale_federation", "--clusters=x")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("flag --clusters is not a number: x", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: cli_test.py <bin dir>")
    BIN_DIR = sys.argv.pop(1)
    unittest.main()
