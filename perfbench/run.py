#!/usr/bin/env python3
"""Builds and runs the layered benchmark for one workload and seed.

Run from the repository root:

    python3 perfbench/run.py --workload porto_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

It builds perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench-<key>, where CARGO_TARGET_DIR defaults to
.bench_build and <key> hashes this checkout's path. It generates the
workload's corpus snapshot from the seed, serves it, and passes the binary's
output through: the last stdout line is the JSON result. Build logs go to
stderr. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir():
    """The checkout's own build dir under $CARGO_TARGET_DIR.

    It is keyed by this checkout's path: two checkouts that share a target
    dir (parent and change) must never build or serve each other's code.
    """
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + key)


def build(target):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", BUILD_JOBS,
                  "--target", target])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            if cmd[1] == "-S":
                # A failed configure must not pass for a configured tree.
                shutil.rmtree(out, ignore_errors=True)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, target)


def run(cmd):
    """Runs one benchmark-binary step; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % cmd[1])
        return 1, ""
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench_layers")
    if binary is None:
        return 1
    work = os.path.join(build_dir(), "work", args.workload)
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        code, lines = run([binary, "prepare"] + common)
        for line in lines:
            sys.stderr.write(line + "\n")
        if code != 0:
            return 1
        code, lines = run([binary, "run"] + common +
                          ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    finally:
        # The snapshot is regenerated by every run; never leave it behind.
        snapshot = os.path.join(work, "corpus.snap")
        if os.path.exists(snapshot):
            os.remove(snapshot)
    if code != 0 or not lines or not lines[-1].startswith("{"):
        for line in lines:
            sys.stderr.write(line + "\n")
        sys.stderr.write("perfbench: run failed (exit %s)\n" % code)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
