#!/usr/bin/env python3
"""Build and run the prany benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --small          # every workload, small, all checks

Run from the root of a checkout. The benchmark binary is built from source
into .bench_build/perfbench (CMake, Release) on first use; WAL files,
sockets and traces go under .bench_build/perfbench-run. The last line of
standard output is the run's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "perfbench-run")
WORKLOADS = ["inproc-saturated", "uds-serial", "mc-explore"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def run_one(binary, workload, seed, seconds, trace, small):
    work_dir = os.path.join(RUN_DIR, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: malformed result from {workload}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="one small round of each workload (or of "
                             "--workload), every check on")
    args = parser.parse_args()
    if args.workload is None and not args.small:
        parser.error("--workload is required unless --small is given")
    os.chdir(ROOT)
    binary = build()
    if args.small:
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            result = run_one(binary, workload, args.seed, args.seconds,
                             args.trace, small=True)
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
        return 0 if ok else 1
    result = run_one(binary, args.workload, args.seed, args.seconds,
                     args.trace, small=False)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
