#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator straight from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark binary. Build output goes to stderr; the binary's last stdout line
is the JSON result. The traced run (--trace 1) also writes its span log to
the build directory. See perfbench/README.md for workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        fail("simulator sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    cmd = [binary] + argv
    if args.get("--trace") == "1" and "--spans" not in args:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args['--workload']}-{args.get('--seed', '1')}.jsonl")]
    # The simulator reads these at System construction; the benchmark sets
    # every knob itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSOODB_")}
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
