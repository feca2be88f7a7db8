#!/usr/bin/env python3
"""Repeats benchmark runs with distinct seeds and reports each metric's spread.

    python3 perfbench/steadiness.py --workloads sweep_triage,guided \
        --seeds 101-110 --seconds 20 [--trace 0|1] [--out FILE]

The spread of a metric is the distance between the first and third quartile
of its per-run values (statistics.quantiles(values, n=4)) as a share of
their median.  Every run's metrics are kept: --out appends one JSON record
per invocation with all of them.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        spreads = {}
        if len(runs) >= 2:
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name] for r in runs]
                spreads[name] = {"median": statistics.median(values),
                                 "iqr_over_median": spread(values)}
                print(f"  {workload} {name}: median {statistics.median(values):.6g}"
                      f" spread {spread(values):.4f}")
        record["workloads"][workload] = {"runs": runs, "spread": spreads}

    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
