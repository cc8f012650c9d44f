#!/usr/bin/env python3
"""Runs one workload once per seed and reports each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds 15] [--trace 0]

Run from the repository root. For every metric it prints the median of
the runs and the distance between the first and third quartile as a share
of the median (statistics.quantiles, n=4), the figure the benchmark's
bounds are judged against.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900, check=False)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: checks failed: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "-"
        print(f"  {name:34s} median {med:<14.6g} spread {spread}")


if __name__ == "__main__":
    main()
