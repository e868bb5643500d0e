#!/usr/bin/env python3
"""Builds hipads_bench from source and runs one workload.

    python3 hipads_bench/run.py --workload build|analytics|serving \
        --seed N --seconds T --trace 0|1 [--scale S]

Run from the root of a hipads source tree. The first run configures and
builds the library plus the benchmark (Release) under .bench_build/; later
runs reuse that build. The benchmark's scratch files (shard directories)
live under .bench_build/work/ and are removed after the run; the result
record and, with --trace 1, the Chrome trace-event JSON are kept under
.bench_build/results/. The last line of stdout is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hipads_bench")
BINARY = os.path.join(BUILD_DIR, "hipads_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no hipads source tree around " + HERE + "; nothing to build")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hipads_bench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["build", "analytics", "serving"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", type=int, default=16)
    args = parser.parse_args()

    build()
    tag = "%s-%d-t%s-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = os.path.join(ROOT, ".bench_build", "work", tag)
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", str(args.scale), "--work-dir", work]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(results, "trace-" + tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was killed" % RUN_TIMEOUT_S)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(3)
    for name in os.listdir(work):
        if name.startswith("result-"):
            shutil.move(os.path.join(work, name),
                        os.path.join(results, tag + "-" + name))
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
