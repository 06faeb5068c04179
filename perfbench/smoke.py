#!/usr/bin/env python3
"""Smoke check for the benchmark itself (not part of the repository's ctest).

Runs every workload in its tiny-size mode (run.py --smoke), untraced and
traced, and asserts that the result line parses, reports a correct run, and
names exactly the metrics BENCHMARK.json declares, with the declared units.
Then checks that run.py fails cleanly, without a result line, in a directory
holding only BENCHMARK.json and perfbench/ (no simulator sources).

Usage (from the repository root):

    python3 perfbench/smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-400:]}"]
    result = result_line(done.stdout)
    if result is None:
        return [f"{where}: last stdout line is not JSON"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append(f"{where}: attempted={attempted}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                      f"undeclared {sorted(set(got) - set(want))}")
    for name, value in got.items():
        if name in want and value.get("unit") != want[name]:
            errors.append(f"{where}: {name} unit {value.get('unit')} != {want[name]}")
        if not isinstance(value.get("value"), (int, float)):
            errors.append(f"{where}: {name} value {value.get('value')!r}")
    return errors


def check_incomplete_checkout():
    """run.py must exit non-zero, printing no result, without the sources."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "7",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if done.returncode == 0:
        errors.append("incomplete checkout: run.py exited 0")
    if result_line(done.stdout) is not None:
        errors.append("incomplete checkout: run.py printed a result line")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            errors += found
    found = check_incomplete_checkout()
    print(f"incomplete checkout: {'FAIL' if found else 'ok'}", flush=True)
    errors += found
    for error in errors:
        print(f"  {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
