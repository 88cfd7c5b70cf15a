#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json several times, one seed per round, in
alternating order (round 1 runs kv-read, xfer-durable, nested-tree; round 2
the same with the next seed; ...), and prints for each end-to-end metric the
median, the quartiles as statistics.quantiles(values, n=4) gives them, and
the quartile spread as a share of the median next to the metric's bound.
The bounds in BENCHMARK.json are set from this output: a bound must be well
above the spread, or identical code would fail its own gate.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads xfer-durable --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--workloads", nargs="*", help="subset of workloads (default: all)")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    ap.add_argument("--json", help="also write every run's result to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = {n: [] for n in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            res = json.loads(lines[-1])
            if not res["correct"]:
                # Kept: its figures were measured, and the count below
                # shows how often the program's outputs were wrong.
                sys.stderr.write(out.stderr)
            runs[name].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            print(f"round {i + 1} {name} seed {seed} correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} {vals}",
                  flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    worst = 0.0
    print()
    print(f"{'workload':13} {'metric':17} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in names:
        if len(runs[name]) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs[name]}
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[metric]["bound"]
            flag = "" if metric == "setup_s" or spread < bound / 3 else "  <- above a third of the bound"
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:13} {metric:17} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.3f}{flag}")
        incorrect = sum(not r["correct"] for r in runs[name])
        print(f"{name:13} failed share {sorted(shares)}, incorrect runs {incorrect} of {len(runs[name])}")
    print(f"\nlargest spread as a share of its bound (setup_s aside): {worst:.3f}")


if __name__ == "__main__":
    main()
