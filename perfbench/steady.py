#!/usr/bin/env python3
"""Steadiness check: run one workload k times, each with another seed, and
print each metric's spread against its bound in BENCHMARK.json.

usage: python3 perfbench/steady.py --workload NAME [--runs K] [--first-seed S]
                                   [--seconds T] [--trace 0|1] [--json OUT]

Run it from the repository root. Seeds are S, S+1, ..., S+K-1 (default 1
and 10). The spread of a metric is the distance between the first and third
quartiles of its K values, as statistics.quantiles(values, n=4) gives them,
as a share of their median. "steady" means spread <= bound / 3, "ok" means
spread <= bound. --json writes every value plus the summary (the ledger's
input). Exit status 1 when a run fails or an end-to-end metric other than
setup_s spreads beyond its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    table = benchmark["per_layer" if args.trace else "end_to_end"]

    values = {metric["name"]: [] for metric in table}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    failed = 0
    for seed in seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    worst = True
    print(f"\n{args.workload}: {args.runs} runs x {seconds} s")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for metric in table:
        name = metric["name"]
        median, q1, q3, share = spread(values[name])
        bound = metric.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if share <= bound / 3 else ("ok" if share <= bound else "OVER")
            if verdict == "OVER" and name != "setup_s":
                worst = False
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
        summary[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": share, "runs": len(values[name]), "values": values[name]}
        if bound is not None:
            summary[name]["bound"] = bound
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "seeds": seeds, "failed": failed, "metrics": summary}, handle, indent=1)
            handle.write("\n")
    return 0 if worst and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
