#!/usr/bin/env python3
"""Regression tests for tools/perf_smoke's malformed-input handling.

The CI perf gate must fail loudly — not vacuously pass — when a broken
bench run writes an empty or malformed BENCH_kernel.json. Run directly or
via ctest (registered as `perf_smoke_guard` in tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_smoke")
COMMITTED_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines", "BENCH_kernel.json")


def scenario(name, rate, serial_share=None, reps=None):
    s = {"name": name, "events_per_sec": rate, "events": 1000,
         "wall_seconds": 0.1}
    if serial_share is not None:
        s["serial_share"] = serial_share
    if reps is not None:
        s["rep_events_per_sec"] = reps
    return s


def doc(scenarios):
    return {"bench": "kernel", "schema_version": 1, "quick": False,
            "repetitions": 3, "scenarios": scenarios}


class PerfSmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_tool(self, current, baseline):
        return subprocess.run(
            [sys.executable, TOOL, current, baseline],
            capture_output=True, text=True)

    def test_ok_on_matching_scenarios(self):
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e6)]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("perf-smoke: OK", r.stdout)

    def test_fails_on_regression(self):
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e5)]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_fails_on_empty_current_scenarios(self):
        # The original bug: an empty current file produced zero comparisons
        # and therefore a green exit.
        cur = self.write("cur.json", doc([]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("zero scenarios", r.stderr)

    def test_fails_on_empty_baseline_scenarios(self):
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e6)]))
        base = self.write("base.json", doc([]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("zero scenarios", r.stderr)

    def test_fails_on_missing_scenarios_key(self):
        cur = self.write("cur.json", {"bench": "kernel"})
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("no 'scenarios' key", r.stderr)

    def test_fails_on_scenario_missing_rate(self):
        cur = self.write(
            "cur.json",
            doc([{"name": "sched_churn", "events": 7}]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("events_per_sec", r.stderr)

    def test_fails_on_disjoint_scenario_sets(self):
        # Scenario renames on one side only: nothing is compared, which must
        # be an error rather than a vacuous pass.
        cur = self.write("cur.json", doc([scenario("new_name", 1e6)]))
        base = self.write("base.json", doc([scenario("old_name", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("nothing was compared", r.stderr)

    def test_telemetry_overhead_within_bound_passes(self):
        # 8% overhead is inside the default 10% bound.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6),
                                          scenario("telemetry_point", 0.92e6)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("telemetry overhead", r.stdout)

    def test_telemetry_overhead_beyond_bound_fails(self):
        # 20% overhead breaches the 10% bound even though every baseline
        # comparison is fine — the paired check is its own gate.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6),
                                          scenario("telemetry_point", 0.8e6)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("TELEMETRY OVERHEAD TOO HIGH", r.stdout)

    def test_one_slow_telemetry_repetition_does_not_fail(self):
        # One repetition hit by host noise (0.50x) is outvoted by the two
        # clean pairs: the median ratio is 0.95x, inside the bound.
        cur = self.write("cur.json", doc([
            scenario("fig08_point", 1e6, reps=[1e6, 1e6, 1e6]),
            scenario("telemetry_point", 0.96e6,
                     reps=[0.95e6, 0.5e6, 0.96e6])]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("median  0.95x of 3", r.stdout)

    def test_one_fast_telemetry_repetition_does_not_pass(self):
        # Every clean pair shows 20% overhead; one lucky repetition (1.2x)
        # would make the best-of-N pair pass, but the median still fails.
        cur = self.write("cur.json", doc([
            scenario("fig08_point", 1e6, reps=[1e6, 1e6, 1e6]),
            scenario("telemetry_point", 1.2e6,
                     reps=[0.8e6, 1.2e6, 0.8e6])]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("TELEMETRY OVERHEAD TOO HIGH", r.stdout)

    def test_mismatched_repetition_lists_fail_loudly(self):
        cur = self.write("cur.json", doc([
            scenario("fig08_point", 1e6, reps=[1e6, 1e6]),
            scenario("telemetry_point", 1e6, reps=[1e6])]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("per-repetition rates", r.stderr)

    def test_committed_schema2_baseline_is_still_read(self):
        # The committed baseline predates per-repetition rates: as the
        # baseline it compares as before, and as a current file its one
        # best-of-N telemetry pair is gated.
        cur = self.write("cur.json", doc([
            scenario("fig08_point", 2.9e6, reps=[2.9e6, 2.8e6, 2.9e6]),
            scenario("telemetry_point", 2.8e6,
                     reps=[2.8e6, 2.7e6, 2.8e6])]))
        r = self.run_tool(cur, COMMITTED_BASELINE)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("of 3 paired", r.stdout)
        r = self.run_tool(COMMITTED_BASELINE, COMMITTED_BASELINE)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("of 1 paired", r.stdout)

    def test_telemetry_pair_absent_is_not_checked(self):
        # Runs without the telemetry scenario (e.g. a scenario subset) skip
        # the paired check rather than failing on a missing key.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("telemetry overhead", r.stdout)

    def test_serial_share_within_bound_passes(self):
        cur = self.write("cur.json", doc(
            [scenario("parallel_point", 1e6, serial_share=0.25)]))
        base = self.write("base.json", doc([scenario("parallel_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("serial_share=0.250", r.stdout)

    def test_serial_share_beyond_bound_fails(self):
        # A serial phase eating most of the run is a structural regression
        # even when the absolute event rate still clears the 40% margin.
        cur = self.write("cur.json", doc(
            [scenario("parallel_point", 1e6, serial_share=0.85)]))
        base = self.write("base.json", doc([scenario("parallel_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("SERIAL SHARE TOO HIGH", r.stdout)

    def test_serial_share_absent_is_not_checked(self):
        # Scenarios without the field (every non-partitioned scenario, and
        # older baselines) skip the bound rather than failing on a missing
        # key.
        cur = self.write("cur.json", doc([scenario("parallel_point", 1e6)]))
        base = self.write("base.json", doc([scenario("parallel_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("serial_share", r.stdout)

    def test_one_sided_scenarios_are_not_failures(self):
        # Adding a scenario without a lockstep baseline update stays green,
        # as long as at least one scenario is actually compared.
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e6),
                                          scenario("brand_new", 5e5)]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6),
                                            scenario("retired", 2e5)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("new scenario", r.stdout)
        self.assertIn("missing from current run", r.stdout)


if __name__ == "__main__":
    unittest.main()
