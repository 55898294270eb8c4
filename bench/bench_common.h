/**
 * @file
 * Shared infrastructure for the experiment harnesses (one binary per
 * paper table/figure; bench_paper prints the figures that share one
 * simulator sweep). Each harness prints the same rows/series the
 * paper reports; EXPERIMENTS.md records paper-vs-measured.
 *
 * Command line: every harness accepts
 *   --quick        quarter-size inputs (CI-friendly)
 *   --seed=N       generator seed (default 42)
 *   --json=DIR     also write machine-readable crono.metrics.v1
 *                  reports into DIR, one file per benchmark (see
 *                  jsonPathFor) — never a single shared file that a
 *                  multi-kernel sweep would overwrite row by row
 */

#ifndef CRONO_BENCH_BENCH_COMMON_H_
#define CRONO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/suite.h"
#include "core/workloads.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/machine.h"

namespace crono::bench {

/** Parsed harness options. */
struct Options {
    bool quick = false;
    std::uint64_t seed = 42;
    std::string json_dir; ///< empty = no JSON reports
};

inline Options
parseOptions(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
        } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
            opt.seed = std::strtoull(argv[i] + 7, nullptr, 10);
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            opt.json_dir = argv[i] + 7;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json_dir = ".";
        } else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        }
    }
    return opt;
}

/**
 * Per-benchmark report path: <json_dir>/<harness>_<bench>.json. Each
 * (harness, benchmark) pair owns a distinct file so a suite sweep
 * produces one report per kernel instead of each run clobbering the
 * previous kernel's output.
 */
inline std::string
jsonPathFor(const Options& opt, const std::string& harness,
            const std::string& bench_name)
{
    return opt.json_dir + "/" + harness + "_" + bench_name + ".json";
}

/**
 * Write @p rows as one "crono.bench.v1" document at @p path, with
 * the shared diagnostics every harness used to hand-roll.
 * @return false (after printing to stderr) on I/O failure.
 */
inline bool
writeBenchReport(const std::string& path,
                 const std::vector<obs::BenchResult>& rows)
{
    if (!obs::writeTextFile(path, obs::benchSuiteJson(rows))) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
    return true;
}

// ------------------------------------------- GAP measurement rules
//
// The GAP Benchmark Suite (Beamer, Asanović, Patterson) fixes the
// methodology this harness follows:
//  - speedups are normalized to a *work-efficient sequential
//    baseline* (core::seq), never to the 1-thread parallel run;
//  - source-dependent kernels (BFS, SSSP, DFS) run one trial from
//    each of 64 pre-drawn random non-isolated sources and report the
//    average;
//  - only the kernel is timed — graph build, reordering and any
//    algorithm-private preprocessing driven from the timed call stay
//    inside, file I/O and generation stay outside.

/** Number of source trials the GAP specification fixes. */
inline constexpr int kGapSourceTrials = 64;

/**
 * Draw @p k sources uniformly from the non-isolated vertices of
 * @p g (GAP rule: a degree-zero source measures nothing).
 * Deterministic in @p seed; sources may repeat, as in the reference
 * implementation's generator.
 */
inline std::vector<graph::VertexId>
gapSources(const graph::Graph& g, int k, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<graph::VertexId> sources;
    sources.reserve(static_cast<std::size_t>(k));
    while (sources.size() < static_cast<std::size_t>(k)) {
        const auto v = static_cast<graph::VertexId>(
            rng.nextBelow(g.numVertices()));
        if (!g.neighbors(v).empty()) {
            sources.push_back(v);
        }
    }
    return sources;
}

/** Wall-clock seconds of one @p fn() call (monotonic clock). */
template <class Fn>
inline double
timedSeconds(Fn&& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
}

/** The workload sizes used for the simulator experiments. */
inline core::WorkloadConfig
simWorkloadConfig(const Options& opt,
                  core::GraphKind kind = core::GraphKind::sparse)
{
    core::WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.graph_vertices = opt.quick ? 2048 : 8192;
    cfg.edges_per_vertex = 8;
    cfg.matrix_vertices = opt.quick ? 64 : 192;
    cfg.tsp_cities = opt.quick ? 9 : 12;
    cfg.pr_iterations = 3;
    cfg.comm_rounds = 6;
    cfg.seed = opt.seed;
    return cfg;
}

/** One point of a thread sweep. */
struct SweepPoint {
    int threads = 0;
    sim::SimRunStats stats;
    double variability = 0.0;
};

/** Run @p id per thread count on one machine (reset by every run). */
inline std::vector<SweepPoint>
sweepSim(const sim::Config& cfg, core::BenchmarkId id,
         const core::Workload& w, const std::vector<int>& threads)
{
    std::vector<SweepPoint> out;
    sim::Machine machine(cfg);
    for (int t : threads) {
        const rt::RunInfo info = core::runBenchmark(id, machine, t, w);
        out.push_back({t, machine.lastStats(), info.variability});
    }
    return out;
}

/**
 * Fewest-cycle point of @p sweep (the first on ties), among the points
 * at @p threads unless that is empty.
 */
inline const SweepPoint&
bestPoint(const std::vector<SweepPoint>& sweep,
          std::span<const int> threads = {})
{
    const auto cycles = [&](const SweepPoint& p) {
        return threads.empty() || std::find(threads.begin(), threads.end(),
                                            p.threads) != threads.end()
                   ? p.stats.completion_cycles
                   : UINT64_MAX;
    };
    return *std::min_element(
        sweep.begin(), sweep.end(),
        [&](const auto& a, const auto& b) { return cycles(a) < cycles(b); });
}

} // namespace crono::bench

#endif // CRONO_BENCH_BENCH_COMMON_H_
