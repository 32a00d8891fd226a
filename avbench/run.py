#!/usr/bin/env python3
"""Build (if needed) and run the avdb end-to-end benchmark.

Run from the repository root:

    python3 avbench/run.py --workload <name> --seed <n>
                           --seconds <s> --trace <0|1>

The first call configures and builds avbench/ (which compiles the avdb
libraries from src/) into $CARGO_TARGET_DIR/avbench, or .bench_build/avbench
when that variable is unset; later calls only re-check the build. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. With --trace 1 the spans of the traced run are
written next to the build as spans-<workload>-<seed>.jsonl.

The exit code is non-zero when the build fails, when an output check fails,
or when the sources the benchmark builds are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "avbench")


def build(out_dir):
    """Configures once, then builds the avbench target; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("avbench: the avdb sources (src/) are missing", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "avbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    cmd = [os.path.join(out_dir, "avbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
