#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile distance as a share of the median), next
to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/spread.py --workload solve-seq --seeds 1,2,3,4,5

A metric is steady when its spread stays below a third of its bound.
setup_s is shown but, by convention, only its median is compared.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(seconds), "--trace", "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    worst = 0.0
    print(f"\n{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:<18} {med:>12.5g} {spread:>8.3f} {m['bound']:>6}{flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
