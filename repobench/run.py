#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the fferate library and the benchmark binary from this checkout
(CMake, Release), runs the harness self-tests, then runs one workload and
checks its result line against BENCHMARK.json before printing it:

    python3 repobench/run.py --workload relay_campaign --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/repobench (default .bench_build/repobench); span traces of
--trace 1 runs land in its work/ directory. See repobench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 700  # per step; configure takes seconds, so a building run stays under 900 s
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"repobench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "repobench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no fferate sources at {ROOT}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "repobench", "repobench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def check_result(line, spec, trace):
    """Returns the parsed result line, or fails when it breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("nothing was attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != want[name]:
            fail(f"{name}: unit {entry.get('unit')!r} != {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
        if not trace and value == 0:
            fail(f"{name}: end-to-end metric reads 0")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    out = build_dir()
    build(out)
    selftest = subprocess.run([str(out / "repobench_selftest")], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60, check=False)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stderr)
        fail("harness self-tests failed")

    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    command = [str(out / "repobench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload {args.workload} exited with code {done.returncode}")
    result = check_result(lines[-1], spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
