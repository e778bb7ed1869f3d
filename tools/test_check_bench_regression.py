#!/usr/bin/env python3
"""Exit-code tests for check_bench_regression.py, the CI perf gate.

Every input is built from the committed bench/BENCH_overhead.baseline.json
in a temporary directory: the baseline against itself passes (0), a false
correctness flag, a 20% throughput-ratio cut, a fast_mode mismatch and a
fleet_kernel work counter off by one are regressions (1), and malformed
documents are rejected (2).

Stdlib only. Run directly or through CTest (check_bench_regression_test).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "check_bench_regression.py")
BASELINE = os.path.join(ROOT, "bench", "BENCH_overhead.baseline.json")


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        with open(BASELINE, "r", encoding="utf-8") as fh:
            self.baseline = json.load(fh)
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_check(self, current):
        """Exit code of the checker on `current` vs the committed baseline."""
        path = os.path.join(self.tmp.name, "current.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(current, fh)
        proc = subprocess.run([sys.executable, SCRIPT, path, BASELINE],
                              capture_output=True, text=True, check=False)
        return proc.returncode

    def variant(self):
        return copy.deepcopy(self.baseline)

    def test_baseline_against_itself_passes(self):
        self.assertEqual(self.run_check(self.baseline), 0)

    def test_false_correctness_flag_fails(self):
        doc = self.variant()
        doc["cells"]["telemetry_overhead"]["json_bit_identical"] = False
        self.assertEqual(self.run_check(doc), 1)

    def test_batched_throughput_cut_fails(self):
        doc = self.variant()
        doc["cells"]["serve_saturation"]["batched"]["requests_per_sec"] *= 0.8
        self.assertEqual(self.run_check(doc), 1)

    def test_fast_mode_mismatch_fails(self):
        doc = self.variant()
        doc["fast_mode"] = not doc["fast_mode"]
        self.assertEqual(self.run_check(doc), 1)

    def test_fleet_counter_off_by_one_fails(self):
        for key in ("requests", "advance_calls", "thermal_segments", "governor_ticks"):
            doc = self.variant()
            doc["cells"]["fleet_kernel"][key] += 1
            self.assertEqual(self.run_check(doc), 1, key)

    def test_fleet_wall_clock_is_not_gated_exactly(self):
        doc = self.variant()
        doc["cells"]["fleet_kernel"]["wall_s"] *= 1.5
        doc["cells"]["fleet_kernel"]["requests_per_sec"] /= 1.5
        self.assertEqual(self.run_check(doc), 0)

    def test_fleet_counters_skipped_without_profiler(self):
        doc = self.variant()
        doc["profiling_compiled"] = False
        doc["cells"]["fleet_kernel"]["advance_calls"] = 0
        self.assertEqual(self.run_check(doc), 0)

    def test_missing_fleet_cell_is_malformed(self):
        doc = self.variant()
        del doc["cells"]["fleet_kernel"]
        self.assertEqual(self.run_check(doc), 2)

    def test_non_integer_fleet_counter_is_malformed(self):
        doc = self.variant()
        doc["cells"]["fleet_kernel"]["governor_ticks"] = 1.5
        self.assertEqual(self.run_check(doc), 2)

    def test_non_object_document_is_malformed(self):
        self.assertEqual(self.run_check([1, 2]), 2)

    def test_non_object_cells_is_malformed(self):
        doc = self.variant()
        doc["cells"] = [doc["cells"]]
        self.assertEqual(self.run_check(doc), 2)

    def test_non_numeric_requests_per_sec_is_malformed(self):
        doc = self.variant()
        doc["cells"]["serve_saturation"]["scalar"]["requests_per_sec"] = "fast"
        self.assertEqual(self.run_check(doc), 2)


if __name__ == "__main__":
    unittest.main()
