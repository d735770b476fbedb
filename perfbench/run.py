#!/usr/bin/env python3
"""Builds and runs the perfbench binary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
binary (a Release build of the library sources plus perfbench/bench.cpp)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only re-check it. The binary's output is passed through unchanged, so
the last line of standard output is its JSON result.

--workload all runs the four workloads one after another and prints one
combined JSON object whose metric names are prefixed with the workload.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["web-pagerank", "road-sssp", "serve-mixed", "pipeline-social"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s, the first (building) one within 900 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (returncode, stdout).
    On timeout the whole group is killed and reaped before re-raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "lazygraph.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                env=env)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: build exceeded {BUILD_TIMEOUT_S} s")
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def run_one(exe, workload, seed, seconds, trace, capture):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.exit(f"perfbench: {workload} exited with {code}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    if args.workload != "all":
        sys.stdout.flush()
        run_one(exe, args.workload, args.seed, args.seconds, args.trace,
                capture=False)
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        out = run_one(exe, w, args.seed, args.seconds, args.trace,
                      capture=True)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
