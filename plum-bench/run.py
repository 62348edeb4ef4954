#!/usr/bin/env python3
"""plum-bench: build the benchmark and run one workload.

    python3 plum-bench/run.py --workload <solve_p8|adapt_p16|weak_p128> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. It configures and builds the package in
plum-bench/ (the repository's src/ libraries plus the bench driver) under
.bench_build/plum-bench, then runs the driver. The driver's report goes to
stdout and its last line is the JSON result; build output goes to stderr.
See plum-bench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "plum-bench")
WORKLOADS = ("solve_p8", "adapt_p16", "weak_p128")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def call(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"plum-bench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("plum-bench: the plum sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = call(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], 300, sys.stderr)
        if code != 0:
            sys.exit("plum-bench: cmake configure failed")
    code, _ = call(["cmake", "--build", BUILD, "--target", "plum_bench",
                    "-j", "4"], 840, sys.stderr)
    if code != 0:
        sys.exit("plum-bench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    code, out = call([os.path.join(BUILD, "plum_bench"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], 170, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"plum-bench: the driver exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        sys.exit("plum-bench: the driver printed no result line")
    print("\n".join(lines[:-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
