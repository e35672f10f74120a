#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0|1

builds the measurement binary (measure.cpp) from source into
.bench_build/, runs one workload in its own process, checks its outputs
and prints a text report followed by one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  A failed check makes the exit code 1.

Steadiness mode:
    python3 perfbench/run.py --steady 5 [--workload W ...] [--trace 0|1]

runs each workload K times with seeds seed .. seed+K-1, prints every
metric's median, quartiles and spread (as a share of the median, next to
its bound from BENCHMARK.json), then reruns the first seed and checks
that its seeded outputs repeat exactly.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing outside .bench_build

import derive  # noqa: E402

WORKLOADS = ("load_mega", "token_ckpt", "converge_trials")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "rbb_perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rbb_perfbench."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rbb.hpp")):
        raise BenchError("the rbb sources (src/) are not in this checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rbb_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError("build step failed: " + " ".join(cmd))


def run_measure(workload, seed, seconds, trace):
    """Runs rbb_perfbench once in its own process; returns its raw JSON."""
    workdir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise BenchError("rbb_perfbench exited %d without a result (%s)"
                         % (proc.returncode, e))


def evaluate(raw, trace):
    """Raw measurements -> (report lines, final result object)."""
    try:
        attempted, failures = derive.checks(raw)
        metrics = derive.per_layer(raw) if trace else derive.end_to_end(raw)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        # Only a run that stopped early lacks a measurement.
        attempted, failures, metrics = 1, ["missing measurement: %r" % e], {}
    attempted += raw["attempted"]
    failures = raw["failures"] + failures
    lines = ["workload %s  seed %d  threads %d  %s"
             % (raw["workload"], raw["seed"], raw["threads"],
                "traced" if trace else "untraced")]
    if not failures:
        lines.append("determinism key %s" % derive.determinism_key(raw))
    if trace and "plane_isa" in raw:
        lines.append("draw plane ISA %s" % raw["plane_isa"])
    for name, (value, unit, note) in metrics.items():
        lines.append("  %-34s %16.6g %-8s %s" % (name, value, unit, note))
    for msg in failures:
        lines.append("FAILED: " + msg)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return lines, result


def one_run(args):
    raw = run_measure(args.workload[0], args.seed, args.seconds, args.trace)
    lines, result = evaluate(raw, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def load_bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(args):
    """Repeats each workload and prints the spread of every metric."""
    bounds = load_bounds()
    summary = {}
    status = 0
    for workload in args.workload:
        values = {}
        keys = []
        for i in range(args.steady):
            raw = run_measure(workload, args.seed + i, args.seconds,
                              args.trace)
            _, result = evaluate(raw, args.trace)
            if not result["correct"]:
                status = 1
            keys.append(derive.determinism_key(raw) if result["correct"]
                        else None)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d done: correct=%s"
                % (workload, args.seed + i, result["correct"]))
        again = run_measure(workload, args.seed, args.seconds, args.trace)
        repeat_ok = (keys[0] is not None and not again["failures"]
                     and derive.determinism_key(again) == keys[0])
        if not repeat_ok:
            status = 1
        print("== %s: %d runs, seeds %d..%d; seed %d repeats exactly: %s"
              % (workload, args.steady, args.seed,
                 args.seed + args.steady - 1, args.seed, repeat_ok))
        print("  %-34s %14s %14s %14s %8s %6s"
              % ("metric", "median", "q1", "q3", "spread", "bound"))
        summary[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = derive.quartile_spread(vals) if med else float("nan")
            bound = bounds.get(name)
            print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s"
                  % (name, med, q1, q3, spread,
                     "" if bound is None else bound))
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
    print(json.dumps(summary), flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="steadiness mode: K seeds per workload")
    args = parser.parse_args()
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        args.workload = args.workload or list(WORKLOADS)
    elif not args.workload or len(args.workload) != 1:
        parser.error("a single run takes exactly one --workload")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        return steady(args) if args.steady else one_run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
