#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Run from the repository root:  python3 perfbench/test_bench.py
Builds the benchmark through run.py (same build directory) and checks:
failed slices are counted rather than crashed on, the seed is plumbed
through and the model result repeats exactly, the probe self-check reads
~1.0, the structural predictions of perfbench/README.md hold, the metric
names match BENCHMARK.json, and a directory without the simulator sources
fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(workload, seed=1, seconds=1, trace=0, extra=()):
    """Runs the benchmark; returns (exit code, parsed result or None, info)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = info = None
    if len(lines) >= 2:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
    return out.returncode, result, info


def value(result, name):
    return result["metrics"][name]["value"]


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_forced_failures_are_counted_and_every_metric_printed(self):
        # A tiny event cap stops every slice short of its commit target.
        for trace in (0, 1):
            code, res, _ = bench("hicon_contended", trace=trace,
                                 extra=("--max-events", "2000"))
            self.assertEqual(code, 0)
            self.assertFalse(res["correct"])
            self.assertGreaterEqual(res["attempted"], 1)
            self.assertEqual(res["failed"], res["attempted"])
            key = "per_layer" if trace else "end_to_end"
            self.assertEqual(sorted(res["metrics"]),
                             sorted(m["name"] for m in self.spec[key]))

    def test_seed_is_plumbed_and_model_result_repeats_exactly(self):
        _, a, _ = bench("private_cached", seed=11, trace=1)
        _, b, _ = bench("private_cached", seed=11, trace=1)
        _, c, _ = bench("private_cached", seed=12, trace=1)
        for r in (a, b, c):
            self.assertTrue(r["correct"])
        name = "sim.events_per_commit"
        self.assertEqual(value(a, name), value(b, name))
        self.assertNotEqual(value(a, name), value(c, name))
        _, a, _ = bench("hicon_contended", seed=11)
        _, b, _ = bench("hicon_contended", seed=11)
        _, c, _ = bench("hicon_contended", seed=12)
        self.assertEqual(value(a, "sim_tput"), value(b, "sim_tput"))
        self.assertNotEqual(value(a, "sim_tput"), value(c, "sim_tput"))

    def test_probe_self_check_reads_one(self):
        code, res, info = bench("probe_null", seconds=3)
        self.assertEqual(code, 0)
        self.assertAlmostEqual(value(res, "run_ref"), 1.0, delta=0.05)
        self.assertGreater(info["bench.run_s"], 0)
        self.assertGreater(info["bench.probe_s"], 0)

    def test_end_to_end_metrics_match_spec_and_are_nonzero(self):
        names = sorted(m["name"] for m in self.spec["end_to_end"])
        for w in self.spec["workloads"]:
            code, res, _ = bench(w["name"])
            self.assertEqual(code, 0, w["name"])
            self.assertTrue(res["correct"], w["name"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(sorted(res["metrics"]), names)
            for n in names:
                self.assertGreater(value(res, n), 0, (w["name"], n))

    def test_structural_predictions(self):
        r = {w["name"]: bench(w["name"], trace=1)[1]
             for w in self.spec["workloads"]}
        for name, res in r.items():
            self.assertTrue(res["correct"], name)
        self.assertGreater(value(r["hicon_contended"],
                                 "cc.lock_waits_per_commit"), 0)
        self.assertEqual(value(r["private_cached"],
                               "cc.lock_waits_per_commit"), 0)
        for name, res in r.items():
            shard = value(res, "shard.windows")
            traced = value(res, "trace.bytes_per_commit")
            if name == "scaled_partitioned":
                self.assertGreater(shard, 0)
            else:
                self.assertEqual(shard, 0, name)
            if name == "hicon_observed":
                self.assertGreater(traced, 0)
            else:
                self.assertEqual(traced, 0, name)

    def test_fails_cleanly_without_simulator_sources(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, target, "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "hicon_contended", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
