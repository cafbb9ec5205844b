"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test runs the built vcbench (python3 perfbench/run.py builds it) and
is skipped when it has not been built yet.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "vcbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")


def raw_result(**overrides):
    raw = {
        "workload": "serve_mix",
        "seed": 0,
        "trace": False,
        "fingerprint": {
            "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 12.2.0",
            "build_type": "RelWithDebInfo", "ipo": True, "sanitize": "", "version": "abc",
        },
        "attempted": 10,
        "failed": 0,
        "scalars": {"legs_per_s": {"value": 100.0, "unit": "1/s"}},
        "samples": {
            "setup_s": {"unit": "s", "latency": False, "values": [3.0, 1.0, 2.0]},
            "hit_job": {"unit": "ms", "latency": True, "values": [float(i) for i in range(1, 101)]},
        },
        "layers": {},
        "checks": [{"name": "doc", "ok": True, "detail": ""}],
    }
    raw.update(overrides)
    return raw


class MetricNames(unittest.TestCase):
    def test_spec_names_are_valid(self):
        spec = benchlib.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_spec_bounds(self):
        spec = benchlib.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_bad_names_rejected(self):
        for bad in ("has space", "slash/name", "", "x" * 65, "p50%"):
            with self.assertRaises(ValueError):
                benchlib.check_name(bad)

    def test_reduced_names_are_valid(self):
        for name in benchlib.reduce_result(raw_result()):
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")


class Percentiles(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.percentile(list(range(19)), 0.5))
        self.assertIsNotNone(benchlib.percentile(list(range(20)), 0.5))
        self.assertIsNone(benchlib.percentile(list(range(99)), 0.9))
        self.assertEqual(benchlib.percentile(list(range(1, 101)), 0.9), 90)
        self.assertIsNone(benchlib.percentile([], 0.5))

    def test_latency_reports_highest_supported_percentile(self):
        few = benchlib.latency_metrics("hit_job", [1.0] * 50, "ms")
        self.assertEqual(set(few), {"hit_job_p50_ms"})
        hundred = benchlib.latency_metrics("hit_job", [1.0] * 100, "ms")
        self.assertEqual(set(hundred), {"hit_job_p50_ms", "hit_job_p90_ms"})
        many = benchlib.latency_metrics("hit_job", [1.0] * 1010, "ms")
        self.assertEqual(set(many), {"hit_job_p50_ms", "hit_job_p99_ms"})
        self.assertEqual(benchlib.latency_metrics("hit_job", [1.0] * 10, "ms"), {})

    def test_reduce_takes_medians_and_counts(self):
        metrics = benchlib.reduce_result(raw_result(attempted=4, failed=1))
        self.assertEqual(metrics["setup_s"], (2.0, "s", 3))
        self.assertEqual(metrics["hit_job_p50_ms"], (50.0, "ms", 100))
        self.assertEqual(metrics["hit_job_p90_ms"], (90.0, "ms", 100))
        self.assertEqual(metrics["error_frac"][0], 0.25)
        self.assertEqual(metrics["ok_frac"][0], 0.75)


class Results(unittest.TestCase):
    def test_failed_check_makes_result_incorrect(self):
        raw = raw_result(checks=[{"name": "doc", "ok": False, "detail": "differs"}])
        line = benchlib.result_line(raw, benchlib.reduce_result(raw), ["setup_s"])
        self.assertFalse(line["correct"])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})

    def test_missing_metric_is_an_error(self):
        raw = raw_result()
        with self.assertRaises(KeyError):
            benchlib.result_line(raw, benchlib.reduce_result(raw), ["setup_s", "no_such"])


class Fingerprints(unittest.TestCase):
    def test_mismatch_refused(self):
        base = raw_result()
        for field, value in (("nproc", 8), ("cpu_model", "other"), ("build_type", "Debug"),
                             ("ipo", False), ("compiler", "GNU 13"), ("sanitize", "address")):
            head = copy.deepcopy(base)
            head["fingerprint"][field] = value
            with self.assertRaises(benchlib.FingerprintMismatch):
                benchlib.compare(base, head)

    def test_versions_may_differ(self):
        base = raw_result()
        head = copy.deepcopy(base)
        head["fingerprint"]["version"] = "def"
        head["scalars"]["legs_per_s"]["value"] = 110.0
        rows = {row[0]: row for row in benchlib.compare(base, head)}
        self.assertAlmostEqual(rows["legs_per_s"][4], 1.1)


@unittest.skipUnless(os.path.exists(BINARY), "vcbench not built yet")
class Binary(unittest.TestCase):
    def run_vcbench(self, *args):
        return subprocess.run([BINARY, *args], capture_output=True, text=True, timeout=170)

    def test_corrupt_mapgen_control_fires(self):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        out = os.path.join(RESULTS_DIR, "test-control.json")
        done = self.run_vcbench("--workload", "ffwbbr_deep", "--seed", "5", "--seconds", "0.01",
                                "--trace", "0", "--out", out)
        self.assertEqual(done.returncode, 0, done.stderr)
        with open(out) as f:
            checks = {c["name"]: c for c in json.load(f)["checks"]}
        self.assertTrue(checks["corrupt_mapgen_control_fires"]["ok"])
        self.assertTrue(checks["analytic_crosscheck"]["ok"])

    def test_usage_errors(self):
        self.assertEqual(self.run_vcbench("--workload", "nope", "--out", "x").returncode, 2)
        self.assertEqual(self.run_vcbench("--workload").returncode, 2)


if __name__ == "__main__":
    unittest.main()
