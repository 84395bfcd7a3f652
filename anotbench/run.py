#!/usr/bin/env python3
"""Builds the AnoT benchmark from source and runs one workload.

    python3 anotbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and compiles
the benchmark (anotbench/CMakeLists.txt, which pulls in the repository's
anot_core library) into $CARGO_TARGET_DIR, default .bench_build; later
calls reuse that build. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; any other set of names or units is an
error. Exits non-zero, without printing a result, when the sources are
missing or the build or the run fails.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def valid_metric_name(name):
    """True for a name of at most 64 letters, digits, '_', '.' and '-'
    that starts with a letter or a digit."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def declared_metrics(benchmark, trace):
    """Maps each metric name the run must report to its declared unit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def check_result(result, declared):
    """Returns the list of ways `result` breaks the output contract."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"metric {name} is missing")
    for name, entry in sorted(metrics.items()):
        if name not in declared:
            problems.append(f"metric {name} is not declared")
            continue
        if not valid_metric_name(name):
            problems.append(f"metric name {name!r} is invalid")
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name} must have exactly value and unit")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"metric {name} has a non-finite value")
        if entry["unit"] != declared[name]:
            problems.append(f"metric {name} has unit {entry['unit']!r}, "
                            f"declared {declared[name]!r}")
    return problems


def fail(message):
    print(f"anotbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and compiles the benchmark program."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO_ROOT, "src")):
        fail(f"no AnoT sources next to {BENCH_DIR}; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "anotbench",
                  "-j", "2"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return os.path.join(build_dir, "anotbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.abspath(os.path.join(
        REPO_ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark run failed: {err}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        fail(f"last output line is not JSON: {err}")
    problems = check_result(result, declared_metrics(benchmark, args.trace))
    if problems:
        fail("result breaks the output contract: " + "; ".join(problems))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
