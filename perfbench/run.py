#!/usr/bin/env python3
"""Simulator benchmark: build the driver, run one workload, print the result.

Run from the repository root:

  python3 perfbench/run.py --workload infer|sparse-gemm|sweep|serve \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all     # every workload, both modes
  python3 perfbench/run.py --selftest         # the oracle's own checks

The first call configures and builds the simulator library (default
Tier-1 options) and perfbench_driver under .bench_build/. Each call
then runs the driver's self-test and the workload in separate
processes, echoes the driver's lines (host facts, checks, per-layer
table, every metric with its unit) and prints, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. The
metrics are the ones BENCHMARK.json lists: "end_to_end" with
--trace 0, "per_layer" with --trace 1.

The library's warnings go to .bench_build/results/<workload>.stderr,
so stdout stays parseable however much the simulator warns. The
traced run also writes <workload>.trace.json (Chrome trace events,
readable by tools/trace_summarize.py) and <workload>.layers.tsv there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
GOLDEN = os.path.join(HERE, "golden.txt")
WORKLOADS = ["infer", "sparse-gemm", "sweep", "serve"]

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: error: %s" % msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the driver up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources beside perfbench/; run from a "
             "checkout of the repository")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def run_driver(args, stderr_name):
    """Run the driver; return (exit code, stdout lines)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    err_path = os.path.join(RESULTS_DIR, stderr_name)
    with open(err_path, "w") as err:
        try:
            done = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                                  stderr=err, text=True, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("driver %s timed out after %d s" % (args, RUN_TIMEOUT_S))
    with open(err_path) as f:
        err_lines = f.readlines()
    lines = done.stdout.splitlines()
    for line in lines:
        print(line)
    print("stderr_lines %d (%s)" % (len(err_lines), err_path))
    if done.returncode != 0 and err_lines:
        sys.stderr.write("".join(err_lines[-10:]))
    return done.returncode, lines


def parse(lines):
    """Metrics by name, and the result line's fields."""
    metrics, result = {}, None
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"]:
            if len(parts) != 4 or not parts[3]:
                fail("metric line without a unit: %r" % line)
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[:1] == ["result"]:
            result = dict(p.split("=", 1) for p in parts[1:])
    if result is None:
        fail("the driver printed no result line")
    return metrics, result


def selftest():
    code, lines = run_driver(["--selftest"], "selftest.stderr")
    _, result = parse(lines)
    if code != 0 or result.get("correct") != "1":
        fail("benchmark self-test failed")


def run_workload(workload, seed, seconds, trace):
    """One driver run; returns (correct, attempted, failed, metrics)."""
    code, lines = run_driver(
        ["--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--golden-file", GOLDEN,
         "--out", RESULTS_DIR],
        "%s.trace%d.stderr" % (workload, trace))
    metrics, result = parse(lines)
    correct = code == 0 and result.get("correct") == "1"
    return (correct, int(result["attempted"]), int(result["failed"]),
            metrics)


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def pick(metrics, listed, prefix=""):
    """The listed metrics, each with the unit BENCHMARK.json states."""
    out = {}
    for m in listed:
        if m["name"] not in metrics:
            fail("the driver did not report %s" % m["name"])
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail("%s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], unit, m["unit"]))
        out[prefix + m["name"]] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")

    build()
    selftest()
    if args.selftest:
        print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 0

    runs = []
    if args.workload == "all":
        for w in WORKLOADS:
            for trace in (0, 1):
                runs.append((w, trace, w + "."))
    else:
        runs.append((args.workload, args.trace, ""))
    correct, attempted, failed, out = True, 0, 0, {}
    for workload, trace, prefix in runs:
        ok, att, fl, metrics = run_workload(workload, args.seed,
                                            args.seconds, trace)
        correct = correct and ok and fl == 0
        attempted += att
        failed += fl
        out.update(pick(metrics, listed_metrics(trace), prefix))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
