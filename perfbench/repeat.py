#!/usr/bin/env python3
"""Runs each workload of BENCHMARK.json several times, one seed per run,
and prints per end-to-end metric the median, the quartiles and whether
their spread fits the metric's bound.

    python3 perfbench/repeat.py --runs 10 [--out DIR]

Run it from the repository root. Seeds run from 1 to --runs. The spread
of a metric is the distance between its first and third quartile
(statistics.quantiles, n=4) as a share of its median; "steady" means the
spread is below a third of the bound. The exit status is 0 only if every
run is correct, the failed share is the same in every run and every
metric's spread is within its bound. Each run also appends its record to
<out>/records.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def run_once(bench, workload, seed, out):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", help="records directory (default: the benchmark's own)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    all_fit = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(bench, workload, seed, args.out)
            results.append(r)
            print(f"  {workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, all correct: {correct}, "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':<30} {'unit':>9} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            s, bound = spread(values), m["bound"]
            if s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "fits"
            else:
                verdict = "TOO WIDE"
                all_fit = False
            print(f"  {m['name']:<30} {m['unit']:>9} {q1:>12.4f} {q2:>12.4f} {q3:>12.4f} "
                  f"{s:>7.3f} {bound:>6}  {verdict}")
        all_fit = all_fit and correct and len(shares) == 1
    sys.exit(0 if all_fit else 1)


if __name__ == "__main__":
    main()
