#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dcl1_shared --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --update-expected [--workload W]

The first call configures and builds perfbench/ (the simulator
libraries from src/ plus the benchmark binary, Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr. The last line of stdout is the benchmark's JSON
result; with --workload all it merges every workload's result, with
metric names prefixed by the workload.

Exit codes: 0 ran, 1 usage error, 2 build failed, 3 the benchmark
binary failed or printed no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join("perfbench", "expected")
WORKLOADS = ("dcl1_shared", "private_l1", "paper_grid")
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_binary(args, timeout):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    cmd = [BINARY, "--expected", EXPECTED] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        # subprocess.run kills the child and waits for it on timeout.
        print(f"perfbench: timed out: {err}", file=sys.stderr)
        return 3, ""
    except OSError as err:
        print(f"perfbench: cannot run {BINARY}: {err}", file=sys.stderr)
        return 3, ""
    return done.returncode, done.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run_workload(name, ns):
    # A run overshoots --seconds by at most one pass plus the layer
    # probes; a hung one is killed well before three minutes at 30 s.
    code, out = run_binary(["--workload", name, "--seed", str(ns.seed),
                            "--seconds", str(ns.seconds),
                            "--trace", str(ns.trace)],
                           max(RUN_TIMEOUT_S, 3 * ns.seconds + 60))
    result = last_json(out)
    if code != 0 or result is None:
        sys.stdout.write(out)
        print(f"perfbench: {name}: no result (exit {code})", file=sys.stderr)
        return None, out
    return result, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="",
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--update-expected", action="store_true",
                    help="re-pin the expected simulated results")
    ns = ap.parse_args()
    if ns.seed < 0 or not 1 <= ns.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not (ns.selftest or ns.update_expected) and not ns.workload:
        ap.error("--workload is required")
    if ns.workload and ns.workload not in WORKLOADS + ("all",):
        ap.error(f"unknown workload {ns.workload}")

    if not build():
        return 2

    if ns.selftest or ns.update_expected:
        args = ["--selftest"] if ns.selftest else ["--update-expected"]
        if ns.update_expected and ns.workload not in ("", "all"):
            args += ["--workload", ns.workload]
        code, out = run_binary(args, None)
        sys.stdout.write(out)
        return code

    if ns.workload != "all":
        result, out = run_workload(ns.workload, ns)
        if result is None:
            return 3
        sys.stdout.write(out)
        return 0

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result, out = run_workload(name, ns)
        if result is None:
            return 3
        sys.stdout.write("\n".join(out.splitlines()[:-1]) + "\n")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
