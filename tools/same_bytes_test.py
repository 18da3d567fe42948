#!/usr/bin/env python3
"""Tests for tools/same_bytes's comparison logic, on temporary directories.

Builds nothing: the byte-identity verdict must report one differing byte,
a file missing on either side, and a bench that wrote nothing, and pass
only identical directories; a set that declares its stdout as an output
must save exactly that stream as <label>/stdout.txt. Run directly or via
ctest (registered as `same_bytes_guard` in tests/CMakeLists.txt).
"""

import importlib.machinery
import importlib.util
import os
import tempfile
import unittest
from unittest import mock

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "same_bytes")


def load_tool():
    loader = importlib.machinery.SourceFileLoader("same_bytes", TOOL)
    spec = importlib.util.spec_from_loader("same_bytes", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


same_bytes = load_tool()


class CompareDirsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.head = os.path.join(self.tmp.name, "head")
        os.makedirs(self.base)
        os.makedirs(self.head)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, side, name, data):
        with open(os.path.join(side, name), "wb") as f:
            f.write(data)

    def write_both(self, name, data):
        self.write(self.base, name, data)
        self.write(self.head, name, data)

    def test_identical_directories_pass(self):
        self.write_both("BENCH_Figure_8.json", b'{"points": [1, 2, 3]}\n')
        self.write_both("TELEMETRY_Figure_8_PS_wp00.jsonl", b"x" * 200000)
        files, problems = same_bytes.compare_dirs(self.base, self.head)
        self.assertEqual(files, 2)
        self.assertEqual(problems, [])

    def test_one_differing_byte_is_reported_with_its_offset(self):
        data = bytearray(b"a" * 100000)
        self.write(self.base, "TRACE_Figure_8_PS_wp00.jsonl", bytes(data))
        data[70001] = ord("b")
        self.write(self.head, "TRACE_Figure_8_PS_wp00.jsonl", bytes(data))
        self.write_both("BENCH_Figure_8.json", b"{}")
        files, problems = same_bytes.compare_dirs(self.base, self.head)
        self.assertEqual(files, 2)
        self.assertEqual(
            problems, ["differs at byte 70001: TRACE_Figure_8_PS_wp00.jsonl"])

    def test_a_truncated_file_differs_where_it_ends(self):
        self.write(self.base, "BENCH_Figure_8.json", b"0123456789")
        self.write(self.head, "BENCH_Figure_8.json", b"01234")
        _, problems = same_bytes.compare_dirs(self.base, self.head)
        self.assertEqual(problems, ["differs at byte 5: BENCH_Figure_8.json"])

    def test_missing_files_are_reported_on_either_side(self):
        self.write_both("BENCH_Figure_8.json", b"{}")
        self.write(self.base, "TELEMETRY_Figure_8_PS_wp00.jsonl", b"{}")
        self.write(self.head, "TRACE_Figure_8_PS_wp00.jsonl", b"{}")
        files, problems = same_bytes.compare_dirs(self.base, self.head)
        self.assertEqual(files, 3)
        self.assertEqual(problems, [
            "missing in working tree: TELEMETRY_Figure_8_PS_wp00.jsonl",
            "missing in base: TRACE_Figure_8_PS_wp00.jsonl",
        ])

    def test_no_output_at_all_fails(self):
        files, problems = same_bytes.compare_dirs(self.base, self.head)
        self.assertEqual(files, 0)
        self.assertEqual(problems, ["no output files on either side"])
        _, problems = same_bytes.compare_dirs(
            os.path.join(self.tmp.name, "absent"), self.head)
        self.assertEqual(problems, ["no output files on either side"])


class RunSetsTest(unittest.TestCase):
    def test_a_stdout_set_saves_only_what_the_bench_prints(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "build", "bench")
            os.makedirs(bench)
            # Prints a table row carrying its pinned environment and a
            # diagnostic on stderr; writes no file.
            script = os.path.join(bench, "bench_table")
            with open(script, "w") as f:
                f.write("#!/bin/sh\n"
                        "printf 'shards %s\\n' \"$PSOODB_SIM_SHARDS\"\n"
                        "echo 'warning: not an output' >&2\n")
            os.chmod(script, 0o755)
            sets = [("table", "bench_table", {"PSOODB_SIM_SHARDS": "0"}, True),
                    ("files", "bench_table", {"PSOODB_SIM_SHARDS": "4"},
                     False)]
            with mock.patch.object(same_bytes, "SETS", sets):
                same_bytes.run_sets(os.path.join(tmp, "build"),
                                    os.path.join(tmp, "out"))
            table = os.path.join(tmp, "out", "table")
            self.assertEqual(os.listdir(table), ["stdout.txt"])
            with open(os.path.join(table, "stdout.txt"), "rb") as f:
                self.assertEqual(f.read(), b"shards 0\n")
            # A figure set's stdout is not an output.
            self.assertEqual(os.listdir(os.path.join(tmp, "out", "files")),
                             [])


if __name__ == "__main__":
    unittest.main()
