#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_perfbench.py

Builds the harness the way run.py does, then checks: the seeded generators
repeat per seed and the span self-time arithmetic is right (the harness's
--self-test), the metric names and units it prints match BENCHMARK.json,
BENCHMARK.json keeps its contract, and bad arguments are refused.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the runner's build and naming helpers)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def harness(self, *args):
        return subprocess.run([self.binary, *args], capture_output=True,
                              text=True, timeout=120)

    def test_generators_and_self_times(self):
        proc = self.harness("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("self-test passed", proc.stdout)

    def test_printed_metrics_match_benchmark_json(self):
        proc = self.harness("--list-metrics")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = json.loads(proc.stdout)
        for group in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.spec[group]]
            printed = [(m["name"], m["unit"]) for m in listed[group]]
            self.assertEqual(printed, declared, group)

    def test_benchmark_json_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(metric["better"], ("lower", "higher"))

    def test_refuses_bad_arguments(self):
        self.assertEqual(self.harness("--workload", "nope", "--seed", "1",
                                      "--seconds", "1",
                                      "--trace", "0").returncode, 2)
        self.assertEqual(self.harness("--workload", "sweep_grid", "--seed",
                                      "1", "--seconds", "1",
                                      "--trace", "2").returncode, 2)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
