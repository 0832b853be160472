#!/usr/bin/env python3
"""Builds the flashbench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, RelWithDebInfo, and is incremental: the
first run compiles the simulator library (under a minute on 4 cores), later
runs only check that it is up to date. Build output goes to stderr; the
report of flashbench goes to stdout, and its last line is the JSON result.

Exit codes: those of flashbench (0 with a result, 2 for bad arguments), or 1
when the build fails, for instance in a directory without the simulator
sources.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

WORKLOADS = ("naive_s16", "shared_dir_h8", "boot_storm_h1024", "ftl_replay")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_arg(text):
    if not (text.isascii() and text.isdigit()) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"malformed seed {text!r} (want an integer in [0, 2^64))")
    return text


def seconds_arg(text):
    if not (text.isascii() and text.isdigit()) or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(
            f"malformed seconds {text!r} (want an integer in [1, 3600])")
    return text


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds flashbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no simulator sources (src/) in " + ROOT, file=sys.stderr)
        return None
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "flashbench", "-j", jobs])
    # One build at a time per build directory.
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("run.py: build failed: " + " ".join(step), file=sys.stderr)
                return None
    return os.path.join(out_dir, "flashbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--trace-file",
                        help="where flashbench may write the workload's trace file "
                             "(default: in the build directory)")
    args = parser.parse_args()  # exits 2 with a message on bad input

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    trace_file = args.trace_file or os.path.join(
        out_dir, f"{args.workload}-{args.seed}.trace")
    sys.stdout.flush()
    bench = subprocess.Popen([binary, "--workload", args.workload, "--seed", args.seed,
                               "--seconds", args.seconds, "--trace", args.trace,
                               "--trace-file", trace_file])
    # A SIGTERM to this script stops flashbench too (its repetitions die
    # with it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
