#!/usr/bin/env python3
"""Benchmark for the tlb threshold load-balancing simulator.

Builds perfbench/harness.cpp against the repository's library, runs one
workload for a fixed time and prints one JSON result line:

    python3 perfbench/run.py --workload exact-128k --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository; the build goes to .bench_build/
at its root. --trace 0 reports the end-to-end metrics, measured with no
instrumentation attached; --trace 1 attaches the library's metrics registry
and reports the per-layer metrics instead. The harness checks every
operation's result; `correct` is false if any check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-sweep", "exact-128k", "exact-128k-t4",
             "resource-hypercube", "threshold-churn")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
# A first build compiles the whole library; later runs only check it.
# RUN_LIMIT_S counts from the end of any build that relinked the harness,
# so a first run ends within BUILD_LIMIT_S + RUN_LIMIT_S = 875 s.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 175
# Phase-time counters the engines report, by engine prefix.
ENGINES = ("exact", "grouped", "dynamic")
PHASES = ("sample", "merge", "apply", "arrivals", "completions")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def mtime(path):
    return os.stat(path).st_mtime_ns if os.path.isfile(path) else None


def run_step(cmd, deadline):
    """Run one build step; show its output only when it fails."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"failed: {' '.join(cmd)}")


def build(deadline):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "include", "tlb"))):
        die(f"no tlb sources next to {HERE}; run from a repository checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
              "-j", jobs], deadline)


def measure(args, deadline):
    cmd = [HARNESS, args.workload, str(args.seed), str(args.seconds),
           str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("the harness ran out of time")
    if proc.returncode != 0:
        die(f"the harness exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(s):
    # On a shared host, co-tenants can slow every op by tens of percent for
    # seconds at a time. That noise only ever adds time, so the op time is
    # the run's best op, not its median. A batch op repeats one computation;
    # a churn op spans enough rounds that blocks differ little in work.
    return {
        "op_ms": (min(s["op_ms"]), "ms"),
        "setup_s": (statistics.median(s["setup_s"]), "s"),
        "peak_rss_mb": (s["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(s):
    counters = s["counters"]

    def total(suffix):
        return sum(counters.get(f"{e}.{suffix}", 0) for e in ENGINES)

    metrics = {
        "construct_ms": (statistics.median(s["construct_ms"]), "ms"),
        "start_ms": (statistics.median(s["start_ms"]), "ms"),
        "loop_ms": (statistics.median(s["loop_ms"]), "ms"),
    }
    loop_ns = sum(s["loop_ms"]) * 1e6
    for phase in PHASES:
        metrics[f"{phase}_share"] = (100.0 * total(f"{phase}_ns") / loop_ns,
                                     "%")
    # Share of the pool workers' time spent running tasks (0 with no pool).
    busy_ns = counters.get("pool.busy_ns", 0)
    pool_ns = busy_ns + counters.get("pool.idle_ns", 0)
    metrics["pool_busy_share"] = (100.0 * busy_ns / pool_ns if pool_ns else 0.0,
                                  "%")
    ops = len(s["op_ms"])
    counts = {
        "rounds_per_op": s["rounds"],
        "migrations_per_op": s["migrations"],
        "coins_per_op": counters.get("exact.coins", 0),
        "flush_checks_per_op": total("flush_checks"),
        "dirty_marks_per_op": total("dirty_marks"),
        "bucket_moves_per_op": counters.get("index.bucket_moves", 0),
        "arena_relocations_per_op": s["arena_relocations"],
        "pool_tasks_per_op": counters.get("pool.tasks", 0),
    }
    for name, count in counts.items():
        metrics[name] = (count / ops, "count")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    before = mtime(HARNESS)
    build(start + BUILD_LIMIT_S)
    # A run whose build relinked the harness (a first build, or one after
    # a source edit) gets its whole run budget after the build.
    if mtime(HARNESS) != before:
        start = time.monotonic()
    samples = measure(args, start + RUN_LIMIT_S)

    for error in samples["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    metrics = per_layer(samples) if args.trace else end_to_end(samples)
    print(json.dumps({
        "correct": samples["failed"] == 0 and len(samples["op_ms"]) > 0,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
