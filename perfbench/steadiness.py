#!/usr/bin/env python3
"""Steadiness check: one workload as two interleaved sets of runs.

    python3 perfbench/steadiness.py --workload road [--runs 10]
        [--seconds S] [--seed 1]

Run from the repo root. Run i of set A uses seed SEED + 2i and run i of
set B seed SEED + 2i + 1; A and B alternate, so host drift hits both
sets alike. For every end-to-end metric it prints each set's median
and quartiles (statistics.quantiles, n=4), each set's spread (quartile
distance over median), the difference of the medians, and the bound
from BENCHMARK.json; then the share of failed operations per set.
A metric is flagged when a spread or the difference exceeds a third
of its bound (setup_s: only the difference counts, as its spread is
not bounded).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s" % " ".join(cmd))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for k, name in enumerate("AB"):
            seed = args.seed + 2 * i + k
            result = run_once(args.workload, seed, seconds)
            sets[name].append(result)
            print("run %s%d seed %d: %s" % (
                name, i, seed, " ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in bench["end_to_end"])), file=sys.stderr)

    print("workload %s: 2 sets x %d runs, %d s each" %
          (args.workload, args.runs, seconds))
    print("%-14s %-30s %-30s %8s %6s" %
          ("metric", "A median [q1, q3] spread", "B median [q1, q3] spread",
           "B-A", "bound"))
    steady = True
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cols, medians, spreads = [], [], []
        for s in "AB":
            q1, med, q3 = summary(
                [r["metrics"][name]["value"] for r in sets[s]])
            spread = (q3 - q1) / med
            medians.append(med)
            spreads.append(spread)
            cols.append("%.4g [%.4g, %.4g] %.1f%%" %
                        (med, q1, q3, 100 * spread))
        diff = (medians[1] - medians[0]) / medians[0]
        ok = abs(diff) <= bound / 3 and (
            name == "setup_s" or max(spreads) <= bound / 3)
        steady = steady and ok
        print("%-14s %-30s %-30s %+7.1f%% %5.0f%% %s" %
              (name, cols[0], cols[1], 100 * diff, 100 * bound,
               "" if ok else "UNSTEADY"))
    print("all %d runs, spread per metric (quartile distance / median):"
          % (2 * args.runs))
    for m in bench["end_to_end"]:
        q1, med, q3 = summary([r["metrics"][m["name"]]["value"]
                               for s in "AB" for r in sets[s]])
        print("  %-14s %.4g [%.4g, %.4g] %.1f%%" %
              (m["name"], med, q1, q3, 100 * (q3 - q1) / med))
    for s in "AB":
        att = sum(r["attempted"] for r in sets[s])
        fail = sum(r["failed"] for r in sets[s])
        shares = sorted({r["failed"] / r["attempted"] for r in sets[s]})
        print("set %s: %d attempted, %d failed, failed shares %s" %
              (s, att, fail, shares))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
