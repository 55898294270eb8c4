#!/bin/bash
# Regenerate every table and figure; see EXPERIMENTS.md for the index.
#
# Usage: run_benches.sh [--json[=DIR]] [args passed to every bench]
#   --json[=DIR]  write machine-readable reports into DIR (default:
#                 alongside this script), one file per benchmark:
#                 bench_micro writes DIR/BENCH_micro.json
#                 (crono.bench.v1), bench_reorder writes
#                 DIR/table_reorder.json (crono.bench.v1, one row per
#                 kernel x graph x ordering), bench_gap writes
#                 DIR/table_gap.json (crono.bench.v1 with
#                 baseline-normalized speedup fields), bench_bnb writes
#                 DIR/table_bnb.json (crono.bench.v1, the
#                 branch-and-bound thread/mode scaling table), and every
#                 harness receives --json=DIR so multi-kernel sweeps
#                 (bench_table1_suite) emit one crono.metrics.v1 file
#                 per kernel instead of overwriting a single shared
#                 path. bench_profile writes DIR/table_profile.json
#                 (crono.profile.v1, span-attributed hardware
#                 counters). tests/report_schema_test.cpp
#                 (CRONO_REPORT_DIR) smoke-parses every emitted
#                 document. Finally every crono.bench.v1 report is
#                 aggregated into BENCH_summary.json at the repo root
#                 (bench_compare --aggregate), the single document the
#                 cross-PR perf trajectory tracks.
#
# Exits nonzero if any bench failed, with a summary of the failures.
set -u
cd "$(dirname "$0")"

json_dir=""
case "${1:-}" in
  --json)   json_dir="."; shift ;;
  --json=*) json_dir="${1#--json=}"; shift ;;
esac

json_args=()
if [ -n "$json_dir" ]; then
  mkdir -p "$json_dir"
  json_args=("--json=$json_dir")
fi

failed=()
for b in build/bench/bench_table1_suite build/bench/bench_paper \
         build/bench/bench_fig2_active_vertices build/bench/bench_fig5_vertex_scaling \
         build/bench/bench_fig9_real_machine build/bench/bench_table4_graphs \
         build/bench/bench_ablation_ackwise build/bench/bench_ablation_locality \
         build/bench/bench_ablation_noc build/bench/bench_reorder \
         build/bench/bench_gap build/bench/bench_bnb build/bench/bench_profile; do
  echo "================================================================"
  echo "### $b ${json_args[*]:-} $*"
  "$b" ${json_args[@]+"${json_args[@]}"} "$@" \
    || { echo "FAILED: $b"; failed+=("$b"); }
  echo
done

echo "### build/bench/bench_micro (microbenchmarks)"
build/bench/bench_micro --benchmark_min_time=0.2 \
  || { echo "FAILED: bench_micro"; failed+=(bench_micro); }

if [ -n "$json_dir" ]; then
  echo "### build/bench/bench_micro --json $json_dir/BENCH_micro.json"
  build/bench/bench_micro --json "$json_dir/BENCH_micro.json" \
    || { echo "FAILED: bench_micro --json"; failed+=("bench_micro --json"); }

  # Roll every crono.bench.v1 report into one summary at the repo
  # root; bench_compare skips the crono.metrics.v1 / crono.profile.v1
  # documents the sweeps also emit. A stale summary from a previous
  # run must not feed itself back in.
  summary_inputs=()
  for f in "$json_dir"/*.json; do
    [ "$(basename "$f")" = "BENCH_summary.json" ] && continue
    summary_inputs+=("$f")
  done
  echo "### bench_compare --aggregate BENCH_summary.json"
  build/tools/bench_compare --aggregate BENCH_summary.json \
      ${summary_inputs[@]+"${summary_inputs[@]}"} \
    || { echo "FAILED: bench_compare --aggregate"; failed+=(bench_compare); }
fi

echo "================================================================"
if [ "${#failed[@]}" -ne 0 ]; then
  echo "${#failed[@]} bench(es) FAILED:"
  printf '  %s\n' "${failed[@]}"
  exit 1
fi
echo "All benches passed."
