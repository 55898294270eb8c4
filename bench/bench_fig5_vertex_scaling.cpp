/**
 * @file
 * Figure 5: vertex-scalability study — best-thread-count speedup as
 * the input grows. Sparse synthetic graphs are swept for the CSR
 * kernels, matrix sizes for APSP/BETW_CENT, and city counts for TSP
 * (sizes scaled down from the paper's 16K..4M per DESIGN.md; the
 * monotone "bigger graphs scale better" trend is the result).
 */

#include "bench/bench_common.h"

namespace {

using namespace crono;

double
bestSpeedup(const sim::Config& cfg, core::BenchmarkId id,
            const core::Workload& w, const std::vector<int>& threads)
{
    const auto points = bench::sweepSim(cfg, id, w, threads);
    const auto& best = bench::bestPoint(points);
    return static_cast<double>(points[0].stats.completion_cycles) /
           static_cast<double>(best.stats.completion_cycles);
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    const sim::Config cfg = sim::Config::futuristic256();
    const std::vector<int> threads = {1, 64, 256};

    std::printf("=== Figure 5: vertex scalability (best speedups) "
                "===\n\n");

    // CSR kernels over growing sparse graphs.
    const std::vector<graph::VertexId> sizes =
        opt.quick ? std::vector<graph::VertexId>{1024, 4096}
                  : std::vector<graph::VertexId>{1024, 4096, 16384};
    std::printf("%-12s", "benchmark");
    for (auto n : sizes) {
        std::printf(" %8uV", n);
    }
    std::printf("\n");
    for (const auto& info : core::allBenchmarks()) {
        if (info.id == core::BenchmarkId::apsp ||
            info.id == core::BenchmarkId::betwCent ||
            info.id == core::BenchmarkId::tsp) {
            continue; // swept separately below
        }
        std::printf("%-12s", info.name);
        for (auto n : sizes) {
            core::WorkloadConfig wc = bench::simWorkloadConfig(opt);
            wc.graph_vertices = n;
            const core::WorkloadSet set(wc);
            std::printf(" %8.2fx",
                        bestSpeedup(cfg, info.id,
                                    set.forBenchmark(info.id), threads));
        }
        std::printf("\n");
    }

    // APSP / BETW_CENT over matrix sizes.
    const std::vector<graph::VertexId> matrix_sizes =
        opt.quick ? std::vector<graph::VertexId>{32, 64}
                  : std::vector<graph::VertexId>{48, 96, 192};
    for (auto id : {core::BenchmarkId::apsp, core::BenchmarkId::betwCent}) {
        std::printf("%-12s", core::benchmarkName(id));
        for (auto n : matrix_sizes) {
            core::WorkloadConfig wc = bench::simWorkloadConfig(opt);
            wc.matrix_vertices = n;
            const core::WorkloadSet set(wc);
            std::printf(" %6u:%6.1fx", n,
                        bestSpeedup(cfg, id, set.forBenchmark(id),
                                    threads));
        }
        std::printf("\n");
    }

    // TSP over city counts (paper: 4..32 cities).
    const std::vector<graph::VertexId> cities =
        opt.quick ? std::vector<graph::VertexId>{6, 8, 10}
                  : std::vector<graph::VertexId>{8, 10, 12};
    std::printf("%-12s", "TSP");
    for (auto n : cities) {
        core::WorkloadConfig wc = bench::simWorkloadConfig(opt);
        wc.tsp_cities = n;
        const core::WorkloadSet set(wc);
        std::printf(" %5u:%6.1fx", n,
                    bestSpeedup(cfg, core::BenchmarkId::tsp,
                                set.forBenchmark(core::BenchmarkId::tsp),
                                threads));
    }
    std::printf("\n");
    return 0;
}
