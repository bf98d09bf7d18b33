#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py        # about a minute

Builds `perfbench` like run.py does, then checks input determinism, the
metric naming rule, the percentile sample-count rule, failure accounting
(a wrong reference or a corrupted frame is a failed operation) and that the
traced run's answers equal the untraced ones.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(PERFBENCH, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench, daemon = run.build(run.build_dir())
        cls.bench = os.path.join(ROOT, bench)
        cls.daemon = os.path.join(ROOT, daemon)
        cls.tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, run.build_dir()))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def drive(self, workload, seconds, trace):
        run_dir = tempfile.mkdtemp(dir=self.tmp)
        subprocess.run(
            [self.bench, "--workload", workload, "--seed", "5",
             "--seconds", str(seconds), "--trace", str(trace),
             "--run-dir", os.path.relpath(run_dir, ROOT), "--ppkd",
             self.daemon], cwd=ROOT, capture_output=True, check=True)
        with open(os.path.join(run_dir, "report.json")) as f:
            return json.load(f)

    def dump(self, workload, seed):
        return subprocess.run(
            [self.bench, "--workload", workload, "--seed", str(seed),
             "--dump-inputs"], capture_output=True, check=True).stdout

    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertGreater(len(first.splitlines()), 1)
                self.assertEqual(first, self.dump(workload, 7))
        self.assertNotEqual(self.dump("ppkd_mix", 7).splitlines()[1:],
                            self.dump("ppkd_mix", 8).splitlines()[1:])

    def test_benchmark_file_matches_the_runner(self):
        bench = load_benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.GATED))
        self.assertLessEqual(set(run.GATED), set(run.WORKLOADS))
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])

    def test_metric_names_and_units(self):
        bench = load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)

    def test_self_checks(self):
        # Percentile rule, metric names, and failure accounting: a wrong
        # pinned reference, a corrupted frame, an error or incomplete frame
        # and a non-identical cached line each count as a failed operation.
        out = subprocess.run([self.bench, "--self-test"],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("0 failed", out.stdout)

    def test_gated_run_reports_every_end_to_end_metric(self):
        report = self.drive("ppkd_mix", 1, 0)
        bench = load_benchmark()
        self.assertEqual(set(report["metrics"]),
                         {m["name"] for m in bench["end_to_end"]})
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)
        # Percentile rule: p99 needs at least 1000 hits in the run, p90 at
        # least 100 cold requests.
        self.assertGreaterEqual(report["cached"]["samples"], 1000)
        self.assertIn("p99_ms", report["cached"])
        self.assertGreaterEqual(report["cold"]["samples"], 100)
        self.assertIn("p90_ms", report["cold"])

    def test_runner_prints_the_result_line(self):
        out = subprocess.run(
            ["python3", os.path.join("perfbench", "run.py"), "--workload",
             "exact_ceiling", "--seed", "3", "--seconds", "1", "--trace",
             "0"], cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        self.assertIn("machine", json.loads(lines[-2]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        for metric in result["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})

    def test_traced_run_matches_untraced_answers(self):
        report = self.drive("exact_ceiling", 1, 1)
        self.assertEqual(report["failed"], 0, report["reasons"])
        # Same answers as a gated run in another process, same seed.
        gated = self.drive("exact_ceiling", 1, 0)
        self.assertEqual(report["answer_digest"], gated["answer_digest"])
        self.assertTrue(report["answer_digest"])
        bench = load_benchmark()
        self.assertEqual(set(report["metrics"]),
                         {m["name"] for m in bench["per_layer"]})
        for family in ("paper_sweep", "large_n", "exact_ceiling", "ppkd"):
            self.assertIn(family, report["overhead"])
        self.assertTrue(report["trace"]["spans"])


if __name__ == "__main__":
    unittest.main()
