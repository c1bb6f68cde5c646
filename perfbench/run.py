#!/usr/bin/env python3
"""Runs one workload of the debruijn-routing benchmark.

    python3 perfbench/run.py --workload serve_k16 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds the `dbn` daemon and the
benchmark binary from the checkout's sources (CMake, Release, into
.bench_build/perfbench; later runs rebuild incrementally), runs the
workload, and passes the benchmark's output through: the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit status is 0 only when every correctness check held.

See perfbench/README.md for the workloads, the metrics and how to read them.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_k16", "serve_k128", "sim_deflect")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; the log stays in BUILD."""
    for needed in ("src/CMakeLists.txt", "tools/dbn_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s here: run from the root of a debruijn-routing "
                 "source checkout" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=log, stderr=log) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed (log: %s)" % log_path)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "dbn_tools", "dbn"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): a tiny run, and a run with
    # one deliberately corrupted answer that the correctness gate must catch.
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary, dbn = build()
    workdir = os.path.join(ROOT, ".bench_build", "run")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--dbn", dbn, "--workdir", workdir]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
