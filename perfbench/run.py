#!/usr/bin/env python3
"""Builds and runs the HYPPO repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (the HYPPO libraries from src/ plus the
benchmark program) into $CARGO_TARGET_DIR or .bench_build/, then runs the
program with the given arguments. Build output goes to stderr; the
program's standard output is passed through, so its last line is the
result JSON. Exits non-zero, without a result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: HYPPO sources (src/) not found next to "
                         "perfbench/\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "hyppo_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            sys.stderr.write("perfbench: build step failed: %s\n" % error)
            return False
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "hyppo_perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    except OSError as error:
        sys.stderr.write("perfbench: cannot run %s: %s\n" % (binary, error))
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
