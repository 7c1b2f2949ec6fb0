#!/usr/bin/env python3
"""Builds and runs the PMWare end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
middleware from src/) into .bench_build/perfbench; later calls rebuild
incrementally. The benchmark's own output is passed through, so the last
line of standard output is the result object. Build failures, a failed
run or a malformed result line exit non-zero without printing a result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    return result["attempted"] >= 1 and isinstance(result["metrics"], dict)


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    try:
        done = subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout[-2000:])
        sys.stderr.write("perfbench: run failed (exit %d)\n" % done.returncode)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
