#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Configures and builds e2ebench/ (the repository's src/ libraries plus the
e2ebench program) into .bench_build/cmake at the repository root on first
use, then runs the program from the root. Build output goes to stderr, so
the last line of stdout is the program's JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
# A run must end within 180 s; its phases are sized well below that.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    built = subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr)
    return built == 0 and os.path.exists(BINARY)


def main(argv):
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([BINARY] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
