/**
 * @file
 * Table IV: best speedups across input-graph families — synthetic
 * sparse, three road networks (TX/PA/CA stand-ins at three seeds) and
 * a social network (Facebook stand-in). Also prints the Table III
 * input catalog with structural statistics.
 */

#include "bench/bench_common.h"

#include "graph/stats.h"

int
main(int argc, char** argv)
{
    using namespace crono;
    const bench::Options opt = bench::parseOptions(argc, argv);
    const sim::Config cfg = sim::Config::futuristic256();
    const std::vector<int> threads = {1, 64, 256};

    struct Column {
        const char* name;
        core::GraphKind kind;
        std::uint64_t seed;
    };
    const std::vector<Column> columns = {
        {"Sparse", core::GraphKind::sparse, opt.seed},
        {"RoadTX", core::GraphKind::road, opt.seed + 10},
        {"RoadPN", core::GraphKind::road, opt.seed + 20},
        {"RoadCA", core::GraphKind::road, opt.seed + 30},
        {"Social", core::GraphKind::social, opt.seed + 40},
    };

    std::printf("=== Table III: input graph catalog ===\n\n");
    std::vector<core::WorkloadSet> sets;
    sets.reserve(columns.size());
    for (const Column& c : columns) {
        core::WorkloadConfig wc = bench::simWorkloadConfig(opt);
        wc.kind = c.kind;
        wc.seed = c.seed;
        wc.graph_vertices = opt.quick ? 2048 : 4096;
        sets.emplace_back(wc);
        std::printf("  %s\n",
                    graph::formatStats(
                        c.name, graph::computeStats(sets.back().graph()))
                        .c_str());
    }

    std::printf("\n=== Table IV: best speedups per graph family ===\n\n");
    std::printf("%-12s", "benchmark");
    for (const Column& c : columns) {
        std::printf(" %8s", c.name);
    }
    std::printf("\n");

    for (const auto& info : core::allBenchmarks()) {
        if (info.id == core::BenchmarkId::apsp ||
            info.id == core::BenchmarkId::betwCent ||
            info.id == core::BenchmarkId::tsp) {
            continue; // Table IV marks these input-independent ("-")
        }
        std::printf("%-12s", info.name);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const auto points =
                bench::sweepSim(cfg, info.id,
                                sets[c].forBenchmark(info.id), threads);
            const auto& best = bench::bestPoint(points);
            std::printf(" %7.2fx",
                        static_cast<double>(
                            points[0].stats.completion_cycles) /
                            static_cast<double>(
                                best.stats.completion_cycles));
        }
        std::printf("\n");
    }
    return 0;
}
