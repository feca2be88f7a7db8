#!/usr/bin/env python3
"""Builds the campaign benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload, runs that workload in its own process and prints its
metrics; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Without it, runs all four workloads, one
process each, and prints every metric by workload, name and unit.

The benchmark is built with CMake (Release) under $CARGO_TARGET_DIR
(default .bench_build) in the checkout root.  Build output goes to stderr.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep_triage", "guided", "stream_clean", "table_scale"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures --seconds plus set-up and one warm-up batch; anything far
# beyond that is a hang.
RUN_GRACE_SECONDS = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not (ROOT / "src" / "core" / "campaign.h").is_file():
        fail(f"framework sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # One build at a time per build directory.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                fail("build failed: " + " ".join(cmd))
    return out / "ndb_perfbench"


def run_workload(binary, workload, seed, seconds, trace, echo):
    """Runs one workload process; returns its parsed result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=seconds + RUN_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"{workload} result has keys {sorted(result)}")
    if echo:
        print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.workload != "all":
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace, echo=True)
        print(json.dumps(result), flush=True)
        return 0

    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(binary, workload, args.seed, args.seconds,
                                         args.trace, echo=False)
    for workload, result in results.items():
        state = "ok" if result["correct"] else "CHECK FAILED"
        print(f"{workload}: {state}, {result['failed']} of "
              f"{result['attempted']} scenarios failed")
        for name, metric in result["metrics"].items():
            print(f"  {name:<36} {metric['value']:>18.6f} {metric['unit']}")
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
