"""Tests of the benchmark's own logic on the Python side.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The harness's own rules (the tail
percentile, due-time latency, the goodput ladder, the metric catalogue)
are tested in Rust: `cargo test --manifest-path perfbench/harness/Cargo.toml`.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench():
    return run.load_benchmark(ROOT)


def result_line(metrics, **overrides):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {n: {"value": 1.25, "unit": u} for n, u in metrics.items()}}
    result.update(overrides)
    return json.dumps(result)


class CheckResult(unittest.TestCase):
    def test_accepts_exactly_the_declared_metrics(self):
        b = bench()
        for trace in (False, True):
            expected = run.expected_metrics(b, trace)
            out = run.check_result(result_line(expected), b, trace)
            self.assertEqual(set(out["metrics"]), set(expected))

    def test_rejects_a_wrong_unit(self):
        b = bench()
        expected = dict(run.expected_metrics(b, False))
        expected["setup_s"] = "ms"
        with self.assertRaisesRegex(run.BenchError, "unit"):
            run.check_result(result_line(expected), b, False)

    def test_rejects_missing_and_extra_metrics(self):
        b = bench()
        expected = dict(run.expected_metrics(b, False))
        expected.pop("setup_s")
        with self.assertRaisesRegex(run.BenchError, "missing"):
            run.check_result(result_line(expected), b, False)
        expected = dict(run.expected_metrics(b, False), failed_pct="%")
        with self.assertRaisesRegex(run.BenchError, "extra"):
            run.check_result(result_line(expected), b, False)

    def test_rejects_bad_counts_and_values(self):
        b = bench()
        expected = run.expected_metrics(b, False)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(expected, attempted=0), b, False)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(expected, failed=True), b, False)
        bad = json.loads(result_line(expected))
        bad["metrics"]["setup_s"]["value"] = "fast"
        with self.assertRaises(run.BenchError):
            run.check_result(json.dumps(bad), b, False)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(expected) + "}", b, False)


class Catalogue(unittest.TestCase):
    """The harness's metric catalogue is BENCHMARK.json's, name and unit."""

    @classmethod
    def setUpClass(cls):
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        binary = run.build(ROOT, target)
        out = subprocess.run([binary, "--list-metrics"], check=True, capture_output=True,
                             text=True, cwd=ROOT)
        cls.catalogue = json.loads(out.stdout)

    def test_end_to_end_and_per_layer_match(self):
        b = bench()
        for section in ("end_to_end", "per_layer"):
            ours = [(m["name"], m["unit"]) for m in self.catalogue[section]]
            theirs = [(m["name"], m["unit"]) for m in b[section]]
            self.assertEqual(ours, theirs, section)

    def test_unbounded_figures_stay_out_of_the_result(self):
        bounded = {m["name"] for m in bench()["end_to_end"]}
        for m in self.catalogue["unbounded"]:
            self.assertNotIn(m["name"], bounded)


class BenchmarkFile(unittest.TestCase):
    def test_contract_shape(self):
        b = bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"] + b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        budget = 4 + 22 * len(b["workloads"])
        self.assertLess(budget * (b["run_seconds"] + 5), 3420 - 2 * 120)

    def test_serving_why_states_the_harness_limit(self):
        with open(os.path.join(HERE, "harness", "src", "serve.rs"), encoding="utf-8") as f:
            limit = float(re.search(r"P99_LIMIT_MS: f64 = ([0-9.]+);", f.read()).group(1))
        why = next(w["why"] for w in bench()["workloads"] if w["name"] == "serve-routed")
        stated = float(re.search(r"p99 limit ([0-9.]+) ms", why).group(1))
        self.assertTrue(math.isclose(limit, stated))


if __name__ == "__main__":
    unittest.main()
