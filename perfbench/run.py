#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the preference-query service.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures and builds the library and perfbench/mcn_perfbench.cc
with CMake (Release) under $CARGO_TARGET_DIR, default .bench_build, in the
checkout; later runs reuse that build. Progress goes to stderr. The last line
of stdout is the result object of mcn_perfbench:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without printing a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generous upper bound on one measured run (set-up, oracle, warm-up, window
# and tear-down: about 10 s); mcn_perfbench is killed past it.
RUN_SLACK_SECONDS = 90


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configures and builds mcn_perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "mcn_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out_dir, "mcn_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    program = build(build_dir())
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        print("perfbench: mcn_perfbench timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("perfbench: mcn_perfbench failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if (not isinstance(result, dict) or
            sorted(result) != ["attempted", "correct", "failed", "metrics"]):
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
