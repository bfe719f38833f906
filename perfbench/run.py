#!/usr/bin/env python3
"""Benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library under src/) into the build directory, then runs one workload in
its own process and relays its one-line JSON result:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The build directory is
$CARGO_TARGET_DIR if set, else .bench_build; build output goes to stderr
so the last line of stdout is always the result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-cold", "family-lift", "serve-mix")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds nsbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "nsbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "nsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", help="expected-answer table to check "
                        "against (default: perfbench/expected_answers.tsv)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT]
    if args.expected:
        command += ["--expected", args.expected]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
