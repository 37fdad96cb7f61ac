#!/usr/bin/env python3
"""Smoke test of the CEDR benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
each passes its correctness gate and prints every metric BENCHMARK.json
names, with its unit; that a deliberately corrupted output is caught by
the gate; and that run.py refuses to run without the engine sources.

    python3 perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper of perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def binary():
    return run.build(run.build_dir())


def run_binary(workload, *extra):
    proc = subprocess.run(
        [binary(), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--tiny"] + list(extra),
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class SmokeTest(unittest.TestCase):

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads_pass_and_report_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, declared in (("0", SPEC["end_to_end"]),
                                    ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc, result = run_binary(w["name"], "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_metrics(result, declared)
                    if trace == "0":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_output_fails_the_gate(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = run_binary(w["name"], "--trace", "0",
                                          "--corrupt-output")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable] + SPEC["command"][1:] +
                ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, env=env,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
