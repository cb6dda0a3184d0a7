#!/usr/bin/env python3
"""Tests of perfbench/run.py and of BENCHMARK.json's shape.

    python3 perfbench/tests/test_run.py
"""
import importlib.util
import json
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class CleanEnv(unittest.TestCase):
    def test_removes_only_gstg_variables(self):
        env = {"PATH": "/bin", "GSTG_BINNING": "flat", "GSTG_THREADS": "", "XGSTG_A": "1"}
        self.assertEqual(run.clean_env(env), {"PATH": "/bin", "XGSTG_A": "1"})


class CheckResult(unittest.TestCase):
    expected = {"a_ms": "ms", "b": "count"}

    def result(self, metrics, attempted=3):
        return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}

    def test_accepts_the_exact_set(self):
        ok = self.result({"a_ms": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "count"}})
        self.assertEqual(run.check_result(ok, self.expected), [])

    def test_rejects_missing_extra_and_wrong_units(self):
        bad = self.result({"a_ms": {"value": 1.5, "unit": "s"}, "c": {"value": 1, "unit": "x"}})
        problems = run.check_result(bad, self.expected)
        self.assertIn("missing metric b", problems)
        self.assertIn("unexpected metric c", problems)
        self.assertIn("a_ms: unit s, expected ms", problems)

    def test_rejects_no_attempts_and_extra_keys(self):
        self.assertTrue(run.check_result(self.result({}, attempted=0), {}))
        self.assertTrue(run.check_result({"metrics": {}}, {}))


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(BENCHMARK["workloads"]) <= 8)
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in BENCHMARK["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_expected_metrics_follow_the_trace_flag(self):
        self.assertIn("setup_s", run.expected_metrics(BENCHMARK, trace=False))
        self.assertIn("core.raster_ms", run.expected_metrics(BENCHMARK, trace=True))


if __name__ == "__main__":
    unittest.main()
