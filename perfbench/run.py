#!/usr/bin/env python3
"""End-to-end benchmark entry point for the xnuma simulator.

Builds perfbench/ (the simulator's src/ tree plus the benchmark binary) in an
optimized build, runs one workload, and relays the binary's output. The last
stdout line is the result object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweep --seed 7 --seconds 30 --trace 0

--seed is the workload's seed: RunOptions::seed of every simulated run, or
the churn-trace seed on tenant_churn. Seed 7 is the default (the paper
benches' seed); seed 11 is held out for checking claims. See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "mosbench_carrefour", "tenant_churn")
DEFAULT_SEED = 7  # seed 11 is held out for checking claims (README.md)
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; leave headroom for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out, "xnuma_perfbench")
    return binary if os.access(binary, os.X_OK) else None


def commit_id():
    """The git commit of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass: checks the output shape only")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--seed", str(args.seed),
           "--commit", commit_id()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--chrome_trace",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"benchmark binary exited with {done.returncode}")
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
