#!/usr/bin/env python3
"""Tests of the benchmark's own helpers and of BENCHMARK.json.

    python3 anotbench/test_run.py

Checks metric-name validity, the result-contract check in run.py, that
BENCHMARK.json keeps to its format limits, and that the metric names
and units bench.cc emits are exactly the ones BENCHMARK.json declares.
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(run.REPO_ROOT, "BENCHMARK.json")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH_CC = os.path.join(run.BENCH_DIR, "bench.cc")


def valid_unit(unit):
    """True for a unit of at most 16 letters, digits, '_', '/', '%', '.'
    and '-'."""
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def load_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def emitted_metrics(source, function):
    """(name, unit) pairs of the Metric initializers in `function`."""
    start = source.index(f"std::vector<Metric> {function}(")
    end = source.index("\n}\n", start)
    return re.findall(r'\{"([^"]+)",.*?"([^"]+)"\}', source[start:end],
                      flags=re.S)


class MetricNameTest(unittest.TestCase):
    def test_accepts_valid_names(self):
        for name in ("setup_s", "scorer.mean_us", "stream-icews0515",
                     "9lives", "a" * 64):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "_lead", ".lead", "-lead", "a" * 65, "has space",
                     "µs", "slash/no", None, 3):
            self.assertFalse(run.valid_metric_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB", "us"):
            self.assertTrue(valid_unit(unit), unit)
        for unit in ("", "µs", "x" * 17, "per second"):
            self.assertFalse(valid_unit(unit), unit)


class CheckResultTest(unittest.TestCase):
    DECLARED = {"latency_ms": "ms", "setup_s": "s"}

    def good(self):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"},
                            "setup_s": {"value": 0.5, "unit": "s"}}}

    def test_good_result_passes(self):
        self.assertEqual(run.check_result(self.good(), self.DECLARED), [])

    def test_unit_mismatch(self):
        result = self.good()
        result["metrics"]["latency_ms"]["unit"] = "us"
        self.assertIn("unit", " ".join(run.check_result(result, self.DECLARED)))

    def test_missing_and_extra_metrics(self):
        result = self.good()
        del result["metrics"]["setup_s"]
        result["metrics"]["extra"] = {"value": 1, "unit": "s"}
        problems = " ".join(run.check_result(result, self.DECLARED))
        self.assertIn("setup_s is missing", problems)
        self.assertIn("extra is not declared", problems)

    def test_counts_and_keys(self):
        result = self.good()
        result["attempted"] = 0
        self.assertTrue(run.check_result(result, self.DECLARED))
        result = self.good()
        result["failed"] = 1.5
        self.assertTrue(run.check_result(result, self.DECLARED))
        result = self.good()
        result["note"] = "x"
        self.assertTrue(run.check_result(result, self.DECLARED))

    def test_non_finite_value(self):
        result = self.good()
        result["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.check_result(result, self.DECLARED))


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_keys_and_limits(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        self.assertLessEqual(os.path.getsize(BENCHMARK_JSON), 64 * 1024)
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.bench["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)
        for path in self.bench["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(run.REPO_ROOT, path)))
        for arg in self.bench["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)

    def test_names_units_and_bounds(self):
        names = []
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertTrue(valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))

    def test_bench_cc_emits_the_declared_metrics(self):
        with open(BENCH_CC, encoding="utf-8") as f:
            source = f.read()
        for function, key in (("EndToEndMetrics", "end_to_end"),
                              ("LayerMetrics", "per_layer")):
            emitted = emitted_metrics(source, function)
            declared = [(m["name"], m["unit"]) for m in self.bench[key]]
            self.assertEqual(sorted(emitted), sorted(declared), function)

    def test_workloads_match_bench_cc(self):
        with open(BENCH_CC, encoding="utf-8") as f:
            source = f.read()
        table = source[source.index("kWorkloads[] = {"):]
        table = table[:table.index("};")]
        self.assertEqual(re.findall(r'\{"([^"]+)",', table),
                         [w["name"] for w in self.bench["workloads"]])


if __name__ == "__main__":
    unittest.main()
