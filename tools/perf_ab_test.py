#!/usr/bin/env python3
"""Tests for tools/perf_ab's statistics and exit status, on canned results.

Builds and times nothing: the paired statistics (quartiles, pairs won with
ties counting for neither side, the median gap against the parent's IQR,
the gain/loss claim) are checked on fixed numbers, and each exit status on
canned perfbench results: 0 for a clean comparison; 1 for a median beyond
its BENCHMARK.json bound, for sim_tput differing in one pair, and for a
change that fails more slices; 2 for a failed build, a run that exits
nonzero and a run that prints no JSON result. Run directly or via ctest
(registered as `perf_ab_guard` in tests/CMakeLists.txt).
"""

import contextlib
import importlib.machinery
import importlib.util
import io
import json
import os
import tempfile
import unittest
from unittest import mock

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_ab")


def load_tool():
    loader = importlib.machinery.SourceFileLoader("perf_ab", TOOL)
    spec = importlib.util.spec_from_loader("perf_ab", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


perf_ab = load_tool()

LOWER = {"name": "run_ref", "better": "lower", "bound": 0.25}
HIGHER = {"name": "sim_tput", "better": "higher", "bound": 0.15}
BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 15,
    "workloads": [{"name": "hicon_contended"}],
    "end_to_end": [
        LOWER,
        {"name": "cpu_ref", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        HIGHER,
    ],
}


def result(run_ref, sim_tput=4.334, failed=0, attempted=50, rss=13.7):
    """A perfbench --trace 0 result line."""
    metrics = {"run_ref": (run_ref, "ratio"), "cpu_ref": (run_ref, "ratio"),
               "setup_s": (4.6e-5, "s"), "peak_rss_mb": (rss, "MB"),
               "sim_tput": (sim_tput, "txn/sim_s")}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


PARENT = [0.80, 0.79, 0.81, 0.78, 0.80, 0.82, 0.79, 0.80, 0.81, 0.80]
CHANGE = [0.72, 0.73, 0.71, 0.72, 0.74, 0.72, 0.73, 0.72, 0.71, 0.72]


def runs(values, **kw):
    return [result(v, **kw) for v in values]


def report_status(base_runs, head_runs):
    results = {"hicon_contended":
               (base_runs, head_runs, [i % 2 == 1 for i in
                                       range(len(base_runs))])}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = perf_ab.report(BENCHMARK, results)
    return status, out.getvalue()


class StatisticsTest(unittest.TestCase):
    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(perf_ab.quartiles([4, 1, 3, 2, 5, 6, 8, 7, 10, 9]),
                         (3.25, 5.5, 7.75))
        self.assertEqual(perf_ab.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_wins_count_pairs_and_ties_count_for_neither_side(self):
        row = perf_ab.compare_metric(LOWER, [1.0, 1.0, 1.0, 1.0],
                                     [0.9, 1.0, 1.1, 0.8])
        self.assertEqual((row["wins"], row["pairs"]), (2, 4))
        row = perf_ab.compare_metric(HIGHER, [1.0, 1.0, 1.0],
                                     [0.9, 1.0, 1.1])
        self.assertEqual(row["wins"], 1)

    def test_gap_is_the_change_median_minus_the_parents(self):
        row = perf_ab.compare_metric(LOWER, PARENT, CHANGE)
        self.assertAlmostEqual(row["base"][1], 0.80)
        self.assertAlmostEqual(row["head"][1], 0.72)
        self.assertAlmostEqual(row["gap"], -0.08)
        # Sorted: 0.78 0.79 0.79 0.80 0.80 0.80 0.80 0.81 0.81 0.82; q1 and
        # q3 sit a quarter of the way from the 3rd to the 4th value and
        # three quarters of the way from the 7th to the 8th.
        self.assertAlmostEqual(row["base"][0], 0.7925)
        self.assertAlmostEqual(row["base"][2], 0.8075)
        self.assertAlmostEqual(row["iqr"], 0.015)
        self.assertAlmostEqual(row["ratio"], 0.9)
        self.assertEqual(row["claim"], "gain")
        self.assertFalse(row["exceeded"])

    def test_a_claim_needs_nine_tenths_of_the_pairs(self):
        change = list(CHANGE)
        change[0] = change[1] = 0.85  # two pairs lost: 8/10
        row = perf_ab.compare_metric(LOWER, PARENT, change)
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["claim"], "—")
        change[1] = 0.72  # one pair lost: 9/10
        self.assertEqual(
            perf_ab.compare_metric(LOWER, PARENT, change)["claim"], "gain")

    def test_a_claim_needs_a_gap_above_the_parents_iqr(self):
        parent = [0.70, 0.90, 0.70, 0.90, 0.80, 0.80, 0.70, 0.90, 0.80, 0.85]
        change = [v - 0.01 for v in parent]  # wins every pair, small gap
        row = perf_ab.compare_metric(LOWER, parent, change)
        self.assertEqual(row["wins"], 10)
        self.assertLess(abs(row["gap"]), row["iqr"])
        self.assertEqual(row["claim"], "—")

    def test_a_consistent_slowdown_reads_as_a_loss(self):
        row = perf_ab.compare_metric(LOWER, CHANGE, PARENT)
        self.assertEqual(row["claim"], "loss")
        row = perf_ab.compare_metric(HIGHER, PARENT, CHANGE)
        self.assertEqual(row["claim"], "loss")

    def test_bounds_are_fractions_of_the_parents_median(self):
        self.assertTrue(perf_ab.compare_metric(
            LOWER, [1.0] * 3, [1.26] * 3)["exceeded"])
        self.assertFalse(perf_ab.compare_metric(
            LOWER, [1.0] * 3, [1.24] * 3)["exceeded"])
        self.assertTrue(perf_ab.compare_metric(
            HIGHER, [10.0] * 3, [8.4] * 3)["exceeded"])
        self.assertFalse(perf_ab.compare_metric(
            HIGHER, [10.0] * 3, [8.6] * 3)["exceeded"])

    def test_the_repositorys_benchmark_declares_what_the_tool_reads(self):
        with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        self.assertIsInstance(benchmark["run_seconds"], (int, float))
        self.assertTrue(benchmark["command"])
        names = [m["name"] for m in benchmark["end_to_end"]]
        for name in ("run_ref", "sim_tput"):
            self.assertIn(name, names)
        for m in benchmark["end_to_end"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertGreater(m["bound"], 0)


class ExitStatusTest(unittest.TestCase):
    def test_a_faster_change_with_the_same_model_passes(self):
        status, out = report_status(runs(PARENT), runs(CHANGE))
        self.assertEqual(status, 0)
        self.assertIn("| run_ref | 0.8 [0.7925, 0.8075] | 0.72 [0.72, 0.7275] "
                      "| 0.900 | 10/10 | -0.08 / 0.015 | gain | ok (0.25) |",
                      out)
        self.assertIn("failed slices: parent 0/500, change 0/500; sim_tput "
                      "identical run for run: yes", out)
        self.assertIn("0.8/0.72 0.79/0.73*", out)
        self.assertTrue(out.rstrip().endswith("perf-ab: OK"))

    def test_a_median_beyond_its_bound_fails(self):
        status, out = report_status(runs(PARENT),
                                    runs([v * 1.3 for v in PARENT]))
        self.assertEqual(status, 1)
        self.assertIn("FAIL: run_ref median", out)
        self.assertIn("EXCEEDED (0.25)", out)
        # peak RSS has the tighter bound: +11% fails, +9% passes.
        status, out = report_status(runs(PARENT), runs(PARENT, rss=15.3))
        self.assertEqual(status, 1)
        self.assertIn("FAIL: peak_rss_mb median", out)
        status, _ = report_status(runs(PARENT), runs(PARENT, rss=14.9))
        self.assertEqual(status, 0)

    def test_sim_tput_differing_in_one_pair_fails(self):
        head = runs(CHANGE)
        head[6] = result(CHANGE[6], sim_tput=4.335)
        status, out = report_status(runs(PARENT), head)
        self.assertEqual(status, 1)
        self.assertIn("sim_tput identical run for run: NO", out)
        self.assertIn("FAIL: sim_tput differs in pair(s) 7", out)

    def test_more_failed_slices_in_the_change_fails(self):
        base = runs(PARENT)
        head = runs(CHANGE)
        head[3] = result(CHANGE[3], failed=1)
        status, out = report_status(base, head)
        self.assertEqual(status, 1)
        self.assertIn("failed slices: parent 0/500, change 1/500", out)
        self.assertIn("FAIL: the change failed 1 slices, the parent 0", out)
        base[5] = result(PARENT[5], failed=1)  # as many as the parent
        self.assertEqual(report_status(base, head)[0], 0)


class FailureTest(unittest.TestCase):
    def run_main(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            status = perf_ab.main(["--base", "HEAD", "--pairs", "2",
                                   "--workloads", "hicon_contended"])
        return status, err.getvalue()

    def test_a_failed_build_exits_2(self):
        with mock.patch.object(perf_ab, "unpack"), \
                mock.patch.object(perf_ab, "build",
                                  side_effect=perf_ab.Failure("cmake failed")):
            status, err = self.run_main()
        self.assertEqual(status, 2)
        self.assertIn("perf-ab: cmake failed", err)

    def test_a_failed_run_exits_2(self):
        with mock.patch.object(perf_ab, "unpack"), \
                mock.patch.object(perf_ab, "build"), \
                mock.patch.object(perf_ab, "run_bench",
                                  side_effect=perf_ab.Failure("run failed")):
            status, _ = self.run_main()
        self.assertEqual(status, 2)

    def test_canned_runs_through_main_report_and_exit_0(self):
        canned = iter([result(0.8), result(0.72), result(0.71),
                       result(0.79)])
        with mock.patch.object(perf_ab, "unpack"), \
                mock.patch.object(perf_ab, "build"), \
                mock.patch.object(perf_ab, "run_bench",
                                  side_effect=lambda *a: next(canned)):
            status, err = self.run_main()
        self.assertEqual(status, 0)
        # The second pair runs the change first.
        self.assertIn("pair 2/2: run_ref parent 0.79, change 0.71", err)

    def bench_script(self, tmp, body):
        path = os.path.join(tmp, "fake_bench")
        with open(path, "w") as f:
            f.write("#!/bin/sh\n" + body)
        os.chmod(path, 0o755)
        return dict(BENCHMARK, command=[path])

    def test_run_bench_reads_the_last_line_and_rejects_bad_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            ok = self.bench_script(
                tmp, "echo '{\"info\": {}}'\n"
                     f"echo '{json.dumps(result(0.7))}'\n")
            got = perf_ab.run_bench(ok, tmp, tmp, "hicon_contended", 1)
            self.assertEqual(perf_ab.value(got, "run_ref"), 0.7)
            crashed = self.bench_script(tmp, "echo boom >&2\nexit 3\n")
            with self.assertRaises(perf_ab.Failure), \
                    contextlib.redirect_stderr(io.StringIO()):
                perf_ab.run_bench(crashed, tmp, tmp, "hicon_contended", 1)
            silent = self.bench_script(tmp, "echo 'not json'\n")
            with self.assertRaises(perf_ab.Failure):
                perf_ab.run_bench(silent, tmp, tmp, "hicon_contended", 1)
            partial = dict(result(0.7))
            del partial["metrics"]["sim_tput"]
            short = self.bench_script(tmp, f"echo '{json.dumps(partial)}'\n")
            with self.assertRaises(perf_ab.Failure):
                perf_ab.run_bench(short, tmp, tmp, "hicon_contended", 1)


if __name__ == "__main__":
    unittest.main()
