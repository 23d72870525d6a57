#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark (perfbench/CMakeLists.txt)
compiles the simulator's sources under src/ into its own build tree,
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), so the
first run builds and later runs only check that the build is current.
Build output goes to standard error; the benchmark's JSON result is the
last line of standard output. Spans are written to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run(cmd):
    """Runs cmd with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        print("perfbench: simulator sources not found under", ROOT, file=sys.stderr)
        return 2
    build = build_dir()
    if run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build, "--parallel", jobs]) != 0:
        return 2
    binary = os.path.join(build, "perfbench")
    out = os.path.join(HERE, "out")
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--out", out]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
