#!/usr/bin/env python3
"""Smoke test of the campaign benchmark over a small seed range.

    python3 perfbench/smoke.py [--seeds 1-2] [--seconds 1]

For every workload and seed it runs the untraced and the traced mode and
checks that

  * each run passed its output checks with no failed scenario (for the
    traced mode these include that the traced replica's folded report is
    byte-identical to the untraced one, and that the spans' self times add
    up to the traced wall);
  * the metric names and units are exactly those BENCHMARK.json declares;
  * the deterministic counts of the traced mode repeat exactly when the
    same seed runs again.

Last, it checks that run.py fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep_triage", "guided", "stream_clean", "table_scale"]
# Per-layer metrics that are counts of deterministic work.
DETERMINISTIC = [
    "target.loads_per_scenario", "control.ops_per_scenario",
    "dataplane.pkts_per_scenario", "tables.lookups_per_pkt",
    "core.minimize.replays_per_finding", "core.minimize.wasted_frac",
    "core.localize.probes_per_finding", "campaign.rounds",
    "campaign.coverage_edges", "mutate.share", "verify.concolic_injected",
]


def run(workload, seed, seconds, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-2")
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        print("FAIL: BENCHMARK.json workloads differ from run.py's")
        return 1

    failures = []
    traced = {}
    for workload in WORKLOADS:
        for seed in seed_list(args.seeds):
            for trace in (0, 1):
                proc = run(workload, seed, args.seconds, trace)
                tag = f"{workload} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                if units != declared[trace]:
                    failures.append(f"{tag}: metrics/units differ from BENCHMARK.json")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    failures.append(f"{tag}: output checks failed:\n{proc.stdout[:2000]}")
                if trace:
                    traced[(workload, seed)] = result["metrics"]
                print(f"ok  {tag}: {result['attempted']} scenarios", flush=True)

    first = seed_list(args.seeds)[0]
    for workload in WORKLOADS:
        proc = run(workload, first, args.seconds, 1)
        if proc.returncode != 0 or (workload, first) not in traced:
            failures.append(f"{workload}: repeat run failed")
            continue
        again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        for name in DETERMINISTIC:
            a = traced[(workload, first)][name]["value"]
            b = again[name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} {a} then {b}")
        print(f"ok  {workload}: deterministic counts repeat", flush=True)

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = run("sweep_triage", first, args.seconds, 0, cwd=bare, env=env)
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    if proc.returncode == 0 or any(line.startswith("{") for line in last):
        failures.append("run.py succeeded without the framework sources")
    else:
        print("ok  bare directory: run.py fails without a result", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
