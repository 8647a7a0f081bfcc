#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 redbench/run.py --workload fcn8s_stream --seed 1 --seconds 20 --trace 0
    python3 redbench/run.py --self-test

Run from the repository root. The red library and the benchmark are built
in Release mode under .bench_build/redbench (configured on first use,
rebuilt incrementally after that). Each run executes the workload in its own
process, so its peak RSS is the workload's own. The last line of stdout is
the benchmark's JSON result; build output goes to stderr.

Exit codes: 0 ok; 1 a correctness gate failed (the result is still
printed); 2 the sources are missing or the build failed; 3 the benchmark
refused to report (MVM tier override or non-Release build); 4 a run
timed out.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "redbench")
WORKLOADS = ("fcn8s_stream", "dcgan_stream", "fault_campaign")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "red")
    ):
        log(f"no red sources next to {BENCH_DIR}; run from a full checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(cmd):
    """Run cmd and return (exit code, stdout lines)."""
    try:  # on timeout subprocess.run kills the child and waits for it
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 4, []
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, help="thread budget (default: nproc)")
    ap.add_argument("--self-test", action="store_true", help="run the gate's own test")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(BUILD_DIR, "redbench_gate_test")]).returncode

    cmd = [
        os.path.join(BUILD_DIR, "redbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    code, lines = run(cmd)
    if code not in (0, 1):  # refused or bad arguments: no result
        print("\n".join(lines))
        return code
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        log("the benchmark printed no result")
        return 2
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
