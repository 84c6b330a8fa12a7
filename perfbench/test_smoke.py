#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny graphs.

    python3 perfbench/test_smoke.py

For every workload in BENCHMARK.json it runs one end-to-end pass
(--trace 0) and one traced pass (--trace 1) in --smoke mode and checks
that every metric BENCHMARK.json names is printed with its unit, both in
the JSON result and in the human-readable report, that every answer was
correct and that ok_frac is 1.  It also checks that the benchmark refuses
to run, without a result line, when the program sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        done = run(ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        report = "\n".join(lines[:-1])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertRegex(report, r"metric %s +\S+ %s\b"
                             % (m["name"].replace(".", r"\."),
                                m["unit"].replace("/", r"\/")))
        if not trace:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(tmp, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
