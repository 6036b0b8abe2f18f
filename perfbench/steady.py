#!/usr/bin/env python3
"""Steadiness helper: runs one workload N times, each with another seed,
and prints each metric's median, quartiles, min/max and spread.

    python3 perfbench/steady.py --workload mixed [--runs 10] [--first-seed 0]
        [--seconds S] [--trace 0|1]

The spread is the distance between the first and third quartile as a
share of the median, with the quartiles of Python's
statistics.quantiles(values, n=4). For end-to-end metrics it is shown
against the metric's bound in BENCHMARK.json; the bounds are set from
these figures. --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("seed %d: exit code %d, no result" % (seed, done.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)

    print("\n%s, %d runs of %d s; failed share per run: %s"
          % (args.workload, args.runs, args.seconds, sorted(set(shares))))
    print("%-28s %12s %12s %12s %12s %12s %8s %6s"
          % ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s"
              % (name, median, q1, q3, min(vals), max(vals), spread,
                 "-" if bound is None else bound))


if __name__ == "__main__":
    main()
