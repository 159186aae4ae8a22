#!/usr/bin/env python3
"""Tests of the benchmark itself: its arithmetic (the C++ self-test), its
metric and workload names against BENCHMARK.json, its argument handling,
and the steadiness script's spread rule.

usage: python3 perfbench/test_benchmark.py   (from the repository root;
builds the driver and the self-test first)
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import steady  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(targets=("perfbench_driver", "perfbench_selftest"))
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
            cls.benchmark = json.load(handle)

    def driver(self, *args):
        return subprocess.run([os.path.join(self.out, "perfbench_driver"), *args],
                              capture_output=True, text=True, timeout=60)

    def test_arithmetic(self):
        done = subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_metric_names_match_benchmark_json(self):
        listed = {"end_to_end": [], "per_layer": [], "workload": []}
        for line in self.driver("--list-metrics").stdout.splitlines():
            kind, *rest = line.split()
            listed[kind].append(tuple(rest))
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.benchmark[kind]]
            self.assertEqual(listed[kind], declared, kind)
        declared = [(w["name"],) for w in self.benchmark["workloads"]]
        self.assertEqual(listed["workload"], declared)
        self.assertEqual(list(run.WORKLOADS), [w for (w,) in declared])

    def test_help_never_runs(self):
        done = self.driver("--help")
        self.assertEqual(done.returncode, 0)
        self.assertIn("usage:", done.stdout)
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--help"],
                              capture_output=True, text=True, timeout=10)
        self.assertEqual(done.returncode, 0)
        self.assertIn("usage:", done.stdout)
        self.assertNotIn('"metrics": {', done.stdout)

    def test_unknown_workload_lists_valid_names(self):
        for command in ([os.path.join(self.out, "perfbench_driver")],
                        [sys.executable, os.path.join(HERE, "run.py")]):
            done = subprocess.run(command + ["--workload", "nope"], capture_output=True,
                                  text=True, timeout=10)
            self.assertEqual(done.returncode, 2)
            for name in run.WORKLOADS:
                self.assertIn(name, done.stderr)

    def test_bad_arguments_are_refused(self):
        self.assertEqual(self.driver("--workload", "large-n", "--trace", "2").returncode, 2)
        self.assertEqual(self.driver("--workload", "large-n", "--seed", "x").returncode, 2)
        self.assertEqual(self.driver("--bogus").returncode, 2)
        # run.py passes --seconds, --work and --trace-out; the driver has no defaults.
        self.assertEqual(self.driver("--workload", "large-n").returncode, 2)

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
        median, q1, q3, share = steady.spread(values)
        expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (expected_q1, expected_q3))
        self.assertAlmostEqual(share, (expected_q3 - expected_q1) / statistics.median(values))
        self.assertEqual(median, statistics.median(values))


if __name__ == "__main__":
    unittest.main()
