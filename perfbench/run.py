#!/usr/bin/env python3
"""Builds and runs the tinprov end-to-end benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload serve-fifo --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --selftest   # checks the checks; short runs of all three

The library and the benchmark executable are built with CMake into
.bench_build/ under the current directory (the first run builds; later runs
only rebuild what changed). Build output goes to stderr. The executable's
standard output is passed through; its last line is the JSON result. The
exit code is the executable's: non-zero on any build failure or correctness
mismatch.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve-fifo", "replay-prop", "catchup-prop"]


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "tinprov_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "tinprov_perfbench")


def selftest(binary):
    """Checks the checks: all workloads pass end to end on short inputs,
    a corrupted answer fails the run, and a thread request above nproc is
    refused without a result."""
    ok = True

    def result_of(stdout):
        lines = stdout.strip().splitlines()
        if not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None

    def report(name, passed, detail):
        nonlocal ok
        ok = ok and passed
        print("selftest: %-34s %s  %s" % (name, "PASS" if passed else "FAIL",
                                          detail), flush=True)

    short = ["--seed", "7", "--seconds", "1", "--trace", "0", "--short"]
    for workload in WORKLOADS:
        start = time.time()
        proc = subprocess.run([binary, "--workload", workload] + short,
                              stdout=subprocess.PIPE, text=True)
        result = result_of(proc.stdout)
        passed = (proc.returncode == 0 and result is not None and
                  result["correct"] and result["failed"] == 0)
        report("short " + workload, passed,
               "%.1f s, exit %d" % (time.time() - start, proc.returncode))

        proc = subprocess.run([binary, "--workload", workload,
                               "--corrupt-answer"] + short,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        result = result_of(proc.stdout)
        passed = (proc.returncode == 1 and result is not None and
                  not result["correct"] and result["failed"] >= 1)
        report("corrupted answer fails " + workload, passed,
               "exit %d" % proc.returncode)

    too_many = str((os.cpu_count() or 1) + 1)
    for workload in WORKLOADS:
        proc = subprocess.run([binary, "--workload", workload,
                               "--threads", too_many] + short,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        passed = proc.returncode == 2 and result_of(proc.stdout) is None
        report("threads > nproc refused " + workload, passed,
               "exit %d" % proc.returncode)
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if argv == ["--selftest"]:
        return selftest(binary)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
