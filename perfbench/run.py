#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload road|kron|serve-churn \
        --seed N --seconds S --trace 0|1

Run from the repo root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the crono
libraries from src/) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls rebuild only what changed. Every call runs
the tests of the benchmark's output checkers before the benchmark.
Build output goes to stderr, so the last line on stdout is the result.

--trace 0 splits the run into PARTS processes, one after another, each
with its own set-up and a PARTS-th of the measuring time, and pools
their raw samples: a whole process runs a few percent fast or slow on
this kind of host, and pooling three of them keeps that out of the
run's medians. --trace 1 is one process over the whole time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARTS = 3
CLASSES = ["bfs_ms", "sssp_ms", "cc_ms", "pagerank_ms"]
# A tail is the highest sample with at least this many above it.
TAIL_BEYOND = 10


def run_quiet(cmd):
    """Run cmd with its output sent to stderr; exit with it on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def build():
    """Configure and build; return the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no crono sources next to perfbench/\n")
        sys.exit(2)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(os.path.abspath(base), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", out, "-j", "4", "--target",
               "perfbench", "perfbench_oracle_test"])
    run_quiet([os.path.join(out, "perfbench_oracle_test")])
    return os.path.join(out, "perfbench")


def run_part(binary, workload, seed, seconds):
    """One measuring process; returns its part object."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: a measuring process failed\n")
        sys.exit(proc.returncode or 1)
    return json.loads(lines[-1])


def report(parts):
    """The run's metrics from its parts, each with its sample count."""
    def values(name):
        return [p["values"][name] for p in parts]

    pooled = {c: [v for p in parts for v in p["samples"][c]]
              for c in CLASSES}
    sssp = sorted(pooled["sssp_ms"])
    tail = (sssp[-1 - TAIL_BEYOND] if len(sssp) > TAIL_BEYOND
            else statistics.median(sssp))
    ops = sum(values("ops"))
    metrics = [
        ("setup_s", "s", statistics.median(values("setup_s")), len(parts)),
        ("peak_rss_mb", "MB", statistics.median(values("peak_rss_mb")),
         len(parts)),
        ("ops_per_s", "1/s", ops / sum(values("busy_s")), int(ops)),
    ]
    metrics += [(c, "ms", statistics.median(pooled[c]), len(pooled[c]))
                for c in CLASSES]
    metrics.append(("sssp_tail_ms", "ms", tail, len(sssp)))
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    if args.trace:
        return subprocess.run([binary] + sys.argv[1:]).returncode

    parts = [run_part(binary, args.workload,
                      (args.seed * PARTS + i) % 2**64, args.seconds / PARTS)
             for i in range(PARTS)]
    metrics = report(parts)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    print("%-14s %14s %-4s %8s" % ("metric", "value", "unit", "samples"))
    for name, unit, value, n in metrics:
        print("%-14s %14.6f %-4s %8d" % (name, value, unit, n))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
