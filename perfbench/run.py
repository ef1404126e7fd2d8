#!/usr/bin/env python3
"""Builds and runs the layered benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness and the library sources it
measures are compiled (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; runs write their span traces and results log under the same
directory.  The last stdout line is the harness's JSON result; the command
exits non-zero if the build fails, the harness fails, an output is wrong, or
the printed metrics differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_grid", "fabric_coldstart")
# Each run must end within 180 s; the harness itself needs well under that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 124


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    out = build_dir()
    binary = os.path.join(out, "fmm_perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_quiet(["cmake", "--build", out, "--target", "fmm_perfbench",
                    "-j", jobs], BUILD_TIMEOUT_S)
    if rc != 0 or not os.path.exists(binary):
        return None
    return binary


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--workdir", workdir, "--commit", commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        print("perfbench: harness printed nothing (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace):
        print("perfbench: printed metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        print("perfbench: harness exit %d, correct=%s" %
              (proc.returncode, result["correct"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
