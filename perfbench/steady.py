#!/usr/bin/env python3
"""Steadiness tool: runs one workload several times on one build and prints,
per end-to-end metric, the median, the quartiles and their spread as a share
of the median, plus the attempted and failed counts of every run.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed 1]
                                [--seconds 10]

Run i uses seed <seed> + i, untraced. The quartiles are
statistics.quantiles(values, n=4); the spread (Q3 - Q1) / median is what the
bounds in BENCHMARK.json are set against. A run that exits non-zero but still
prints its result line (a failed check) is counted like any other; only a
run without a result line stops the tool. Run from the root of a checkout.
"""
import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def last_result(stdout):
    """The JSON result on the last line of a run's stdout, or None."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    values = {}
    units = {}
    shares = set()
    for i in range(args.runs):
        seed = args.seed + i
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        result = last_result(proc.stdout)
        if result is None:
            sys.stdout.write(proc.stdout)
            print(f"run {i} (seed {seed}) exited with code {proc.returncode} "
                  "and printed no result")
            break
        shares.add(fractions.Fraction(result["failed"], result["attempted"]))
        figures = " ".join(f"{name}={metric['value']:.6g}"
                           for name, metric in result["metrics"].items())
        print(f"run {i} seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']} exit "
              f"{proc.returncode} wall {wall:.1f} s | {figures}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    runs = len(next(iter(values.values()), []))
    print(f"\n{args.workload}: {runs} runs of {args.seconds:g} s")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
            med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
              f"  {units[name]}")
    print(f"failed/attempted shares seen: {sorted(str(x) for x in shares)}")
    if runs < args.runs:
        sys.exit(1)


if __name__ == "__main__":
    main()
