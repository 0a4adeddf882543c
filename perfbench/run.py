#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload campaign|repair|harden \
        --seed N --seconds S --trace 0|1

Builds the perfbench program from source into .bench_build with
CMake, runs one workload, and relays its output.  The last line of
stdout is the result object {"correct", "attempted", "failed",
"metrics"}; build logs go to stderr.
Exits non-zero, printing no result, when the sources are missing or the
build fails; exits with perfbench's status otherwise.  perfbench
writes only under .bench_out (the traced run's span file).
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    allowed = {"--workload", "--seed", "--seconds", "--trace"}
    if len(argv) % 2:
        fail("flags take one value each")
    args = dict(zip(argv[0::2], argv[1::2]))
    unknown = set(args) - allowed
    if unknown or set(args) != allowed:
        fail(f"expected exactly {sorted(allowed)}, got {argv}")
    return argv


def build(root, build_dir):
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from a full source checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {proc.returncode}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"{binary} was not built")
    return binary


def main():
    argv = parse_args(sys.argv[1:])
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)
    try:
        proc = subprocess.run([binary] + argv + ["--out", ".bench_out"],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench printed no result (exit {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
