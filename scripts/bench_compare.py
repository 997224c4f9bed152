#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json perf-trajectory files.

Both google-benchmark's --benchmark_out JSON and the bench_util.h
JsonBenchReporter emit the same shape: {"context": ..., "benchmarks":
[{"name", "real_time", "time_unit", ...}]}. Benchmarks are matched by
(file, name); a benchmark is flagged when its real_time grew by more
than the threshold (default 25%).

Files whose recorded run shape (context num_cpus / tinprov_native /
simd / compiler / tinprov_scale) differs between baseline and current
are skipped with a warning: a baseline recorded on a 1-CPU box would
otherwise read as a sharding regression on any wider machine, a
scalar-dispatch baseline would read as a vectorization miracle on an
AVX2 host, native-vs-portable or cross-compiler codegen differences are
not regressions either, and a run at another TINPROV_SCALE times a
different input (a 0.1 run against a baseline recorded at 60 would read
as a 100x speedup on every row). Old baselines without those context
fields compare as before.

Usage: bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold 0.25]
                        [--fail-on-regress]

Exits 0 unless --fail-on-regress (alias: --strict) is given and a
regression was found — CI keeps the default warn-only mode, the flag is
for local gates and release branches. Only the standard library is
used.
"""

import argparse
import json
import pathlib
import sys

TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


# Context fields that define the host and input shape; a mismatch in any
# of them (when both sides recorded the field) makes timings
# incomparable.
HOST_SHAPE_FIELDS = ("num_cpus", "tinprov_native", "simd", "compiler",
                     "tinprov_scale")


def host_shape_mismatch(baseline_context, current_context):
    """Returns the first (field, base, cur) whose values differ, else None."""
    for field in HOST_SHAPE_FIELDS:
        base = baseline_context.get(field)
        cur = current_context.get(field)
        if base is not None and cur is not None and base != cur:
            return field, base, cur
    return None


def load_report(path):
    """Returns ({benchmark name: real_time in seconds}, context dict)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        name = bench.get("name")
        real = bench.get("real_time")
        if name is None or real is None:
            continue
        times[name] = real * TIME_UNITS.get(bench.get("time_unit", "ns"), 1e-9)
    return times, data.get("context", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=pathlib.Path)
    parser.add_argument("current_dir", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that counts as a "
                             "regression (default 0.25 = 25%%)")
    parser.add_argument("--fail-on-regress", "--strict", dest="strict",
                        action="store_true",
                        help="exit 1 when a regression is found "
                             "(default: warn only, as CI runs it)")
    args = parser.parse_args()

    regressions = []
    improvements = []
    compared = 0
    for current_path in sorted(args.current_dir.glob("BENCH_*.json")):
        baseline_path = args.baseline_dir / current_path.name
        if not baseline_path.exists():
            print(f"note: no baseline for {current_path.name}, skipping")
            continue
        try:
            baseline, baseline_context = load_report(baseline_path)
            current, current_context = load_report(current_path)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: cannot compare {current_path.name}: {error}")
            continue
        mismatch = host_shape_mismatch(baseline_context, current_context)
        if mismatch is not None:
            field, base, cur = mismatch
            print(f"warning: {current_path.name}: host shape differs "
                  f"({field}: baseline {base!r} vs current {cur!r}), "
                  f"skipping — re-record the baseline on this host "
                  f"at this scale")
            continue
        for name, base_time in sorted(baseline.items()):
            cur_time = current.get(name)
            if cur_time is None or base_time <= 0.0:
                continue
            compared += 1
            ratio = cur_time / base_time
            record = (current_path.name, name, base_time, cur_time, ratio)
            if ratio > 1.0 + args.threshold:
                regressions.append(record)
            elif ratio < 1.0 - args.threshold:
                improvements.append(record)

    print(f"bench_compare: {compared} benchmarks compared against "
          f"{args.baseline_dir}")
    for label, records in (("REGRESSION", regressions),
                           ("improvement", improvements)):
        for file_name, name, base_time, cur_time, ratio in records:
            print(f"  {label}: {file_name}:{name}  "
                  f"{base_time * 1e3:.3f}ms -> {cur_time * 1e3:.3f}ms  "
                  f"({ratio:.2f}x)")
    if not regressions:
        print(f"  no regressions beyond {args.threshold:.0%} "
              f"({len(improvements)} improvements)")
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
