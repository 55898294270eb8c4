/**
 * @file
 * Table II and Figures 1, 3, 4, 6, 7 and 8 of the paper from one
 * sweep per core type: every kernel runs once on the in-order
 * futuristic256 machine at 1..256 threads and once on its OOO twin at
 * {1, 16, 64, 256}, and each figure reads its statistics from those
 * stored points. Machine::run resets all state per run, so a point
 * equals the same run simulated alone (tests/sim_machine_test.cpp).
 * Each figure keeps its own best-thread-count set. After the tables
 * the paper's shape claims are checked on the sweeps; the exit status
 * is nonzero if one fails.
 */

#include <algorithm>

#include "bench/bench_common.h"

namespace {

using namespace crono;
using bench::SweepPoint;
using Sweep = std::vector<SweepPoint>;

/** In-order sweep (Figure 1 picks its best point from all of it). */
const std::vector<int> kInOrderThreads = {1, 2, 4, 8, 16, 32, 64, 128, 256};
/** Best-point set of Figures 3, 4, 6 and 7. */
const std::vector<int> kFigureThreads = {16, 64, 256};
/** OOO sweep, and the best-point set of Figure 8 on both cores. */
const std::vector<int> kOooThreads = {1, 16, 64, 256};

/** Both sweeps of one kernel. */
struct KernelSweeps {
    const core::BenchmarkInfo* info;
    Sweep in_order; ///< kInOrderThreads
    Sweep ooo;      ///< kOooThreads
};

/** Speedup of @p p over the sweep's first (1-thread) point. */
double
speedup(const Sweep& sweep, const SweepPoint& p)
{
    return static_cast<double>(sweep.front().stats.completion_cycles) /
           static_cast<double>(p.stats.completion_cycles);
}

/** The normalized Figure 1/7 components of @p b, " %8.3f" each. */
void
printComponents(const sim::Breakdown& b)
{
    for (const double share : b.normalized().cycles) {
        std::printf(" %8.3f", share);
    }
}

void
printFig1(const sim::Config& cfg, const core::WorkloadSet& set,
          const std::vector<KernelSweeps>& all)
{
    std::printf("=== Figure 1: completion time breakdowns (simulator) "
                "===\n\n%s\n",
                cfg.describe().c_str());
    std::printf("sparse synthetic graph: %u vertices, %llu edge slots; "
                "matrix: %u vertices; TSP: %u cities\n\n",
                set.graph().numVertices(),
                static_cast<unsigned long long>(set.graph().numEdges()),
                set.matrix().numVertices(), set.cities().numVertices());
    for (const KernelSweeps& k : all) {
        std::printf("--- %s (%s) ---\n"
                    "%8s %12s %8s %8s %8s %8s %8s %8s %8s %6s\n",
                    k.info->name, k.info->parallelization, "threads",
                    "cycles", "speedup", "Compute", "L1-L2H", "L2Wait",
                    "L2Shar", "OffChip", "Sync", "Vari");
        for (const SweepPoint& p : k.in_order) {
            std::printf("%8d %12llu %8.2f", p.threads,
                        static_cast<unsigned long long>(
                            p.stats.completion_cycles),
                        speedup(k.in_order, p));
            printComponents(p.stats.breakdown);
            std::printf(" %6.2f\n", p.variability);
        }
        const SweepPoint& best = bench::bestPoint(k.in_order);
        std::printf("best speedup: %.2fx @ %d threads\n\n",
                    speedup(k.in_order, best), best.threads);
    }
}

void
printFigs3To8(const sim::Config& ooo_cfg,
              const std::vector<KernelSweeps>& all)
{
    std::printf("=== Figure 3: L1-D miss classification at best thread "
                "count ===\n\n%-12s %7s %9s %8s %8s %8s\n",
                "benchmark", "threads", "miss%", "cold%", "capac%",
                "shar%");
    for (const KernelSweeps& k : all) {
        const SweepPoint& best = bench::bestPoint(k.in_order, kFigureThreads);
        const sim::CacheStats& l1 = best.stats.l1d;
        const auto pct = [&](sim::MissClass c) {
            return 100.0 *
                   static_cast<double>(l1.misses[static_cast<int>(c)]) /
                   static_cast<double>(l1.accesses);
        };
        std::printf("%-12s %7d %8.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
                    k.info->name, best.threads, 100.0 * l1.missRate(),
                    pct(sim::MissClass::cold),
                    pct(sim::MissClass::capacity),
                    pct(sim::MissClass::sharing));
    }

    std::printf("=== Figure 4: cache hierarchy miss rate at best thread "
                "count ===\n\n%-12s %7s %16s\n",
                "benchmark", "threads", "hierarchy miss%");
    for (const KernelSweeps& k : all) {
        const SweepPoint& best = bench::bestPoint(k.in_order, kFigureThreads);
        std::printf("%-12s %7d %15.3f%%\n", k.info->name, best.threads,
                    100.0 * best.stats.cacheHierarchyMissRate());
    }

    std::printf("=== Figure 6: normalized dynamic energy breakdown ===\n"
                "(11 nm-class per-event energies; DSENT/McPAT "
                "stand-in)\n\n%-12s %6s %6s %6s %6s %7s %6s %6s %9s\n",
                "benchmark", "L1-I", "L1-D", "L2", "dir", "router",
                "link", "DRAM", "network%");
    double network_share_sum = 0.0;
    for (const KernelSweeps& k : all) {
        const sim::EnergyBreakdown& e =
            bench::bestPoint(k.in_order, kFigureThreads).stats.energy;
        const double total = e.total();
        const double network = (e.router + e.link) / total;
        network_share_sum += network;
        std::printf(
            "%-12s %6.3f %6.3f %6.3f %6.3f %7.3f %6.3f %6.3f %8.1f%%\n",
            k.info->name, e.l1i / total, e.l1d / total, e.l2 / total,
            e.directory / total, e.router / total, e.link / total,
            e.dram / total, 100.0 * network);
    }
    std::printf("\naverage network (router+link) share: %.1f%% "
                "(paper: ~75%%)\n",
                100.0 * network_share_sum / core::kNumBenchmarks);

    std::printf("=== Figure 7: OOO completion-time breakdown at best "
                "thread count ===\n\n%s\n%-12s %7s %8s %8s %8s %8s %8s "
                "%8s\n",
                ooo_cfg.describe().c_str(), "benchmark", "threads",
                "Compute", "L1-L2H", "L2Wait", "L2Shar", "OffChip", "Sync");
    for (const KernelSweeps& k : all) {
        const SweepPoint& best = bench::bestPoint(k.ooo, kFigureThreads);
        std::printf("%-12s %7d", k.info->name, best.threads);
        printComponents(best.stats.breakdown);
        std::printf("\n");
    }

    std::printf("=== Figure 8: speedups over sequential OOO core ===\n\n"
                "%-12s %14s %14s %9s %9s\n",
                "benchmark", "ooo-best", "inorder-best", "ooo-thr",
                "io-thr");
    for (const KernelSweeps& k : all) {
        const SweepPoint& ooo = bench::bestPoint(k.ooo, kOooThreads);
        const SweepPoint& io = bench::bestPoint(k.in_order, kOooThreads);
        std::printf("%-12s %13.2fx %13.2fx %9d %9d\n", k.info->name,
                    speedup(k.ooo, ooo), speedup(k.in_order, io),
                    ooo.threads, io.threads);
    }
}

/** The paper's shape claims, checked on the stored sweeps. */
bool
checkShapes(const std::vector<KernelSweeps>& all)
{
    const auto of = [&](core::BenchmarkId id) -> const KernelSweeps& {
        return *std::find_if(all.begin(), all.end(),
                             [&](const auto& k) { return k.info->id == id; });
    };
    const auto fig1Best = [](const KernelSweeps& k) {
        return speedup(k.in_order, bench::bestPoint(k.in_order));
    };
    const auto fig8Best = [](const Sweep& s) {
        return speedup(s, bench::bestPoint(s, kOooThreads));
    };
    const auto sync = [](const SweepPoint& p) {
        return p.stats.breakdown.normalized()[sim::Component::synchronization];
    };
    const auto bySync = [&](const SweepPoint& a, const SweepPoint& b) {
        return sync(a) < sync(b);
    };
    const auto verdict = [](bool pass) { // ends a shape-check line
        std::printf(" [%s]\n", pass ? "PASS" : "FAIL");
        return pass;
    };
    bool top = true, lower = true, rising = true;
    int network_largest = 0;

    std::printf("\n=== Shape checks ===\n\nAPSP and BETW_CENT rank in "
                "the top three best speedups (Fig 1):");
    for (const auto id : {core::BenchmarkId::apsp,
                          core::BenchmarkId::betwCent}) {
        const double best = fig1Best(of(id));
        const auto rank = 1 + std::count_if(all.begin(), all.end(),
                                            [&](const KernelSweeps& k) {
                                                return fig1Best(k) > best;
                                            });
        std::printf(" %s #%td (%.2fx)", of(id).info->name, rank, best);
        top = top && rank <= 3;
    }
    bool ok = verdict(top);

    for (const KernelSweeps& k : all) {
        const sim::EnergyBreakdown& e =
            bench::bestPoint(k.in_order, kFigureThreads).stats.energy;
        network_largest += e.router + e.link >=
                           std::max({e.l1i, e.l1d, e.l2, e.directory,
                                     e.dram});
    }
    std::printf("router+link is the largest energy bucket for a majority "
                "of kernels (Fig 6): %d of %d",
                network_largest, core::kNumBenchmarks);
    ok &= verdict(2 * network_largest > core::kNumBenchmarks);

    std::printf("OOO lowers the BFS, DFS and COMM best speedups "
                "(Fig 8, OOO vs in-order):");
    for (const auto id : {core::BenchmarkId::bfs, core::BenchmarkId::dfs,
                          core::BenchmarkId::comm}) {
        const KernelSweeps& k = of(id);
        std::printf(" %s (%.2fx vs %.2fx)", k.info->name, fig8Best(k.ooo),
                    fig8Best(k.in_order));
        lower = lower && fig8Best(k.ooo) < fig8Best(k.in_order);
    }
    ok &= verdict(lower);

    std::printf("Synchronization fraction never falls from 1 to 256 "
                "threads for the Graph Division kernels (Fig 1):");
    for (const KernelSweeps& k : all) {
        if (std::strcmp(k.info->parallelization, "Graph Division") == 0) {
            std::printf(" %s (%.3f .. %.3f)", k.info->name,
                        sync(k.in_order.front()), sync(k.in_order.back()));
            rising = rising && std::is_sorted(k.in_order.begin(),
                                              k.in_order.end(), bySync);
        }
    }
    return verdict(rising) && ok;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    const sim::Config in_order = sim::Config::futuristic256();
    const sim::Config ooo =
        sim::Config::futuristic256(sim::CoreType::outOfOrder);
    const core::WorkloadSet set(bench::simWorkloadConfig(opt));

    std::vector<KernelSweeps> all;
    for (const auto& info : core::allBenchmarks()) {
        const core::Workload w = set.forBenchmark(info.id);
        all.push_back(
            {&info,
             bench::sweepSim(in_order, info.id, w, kInOrderThreads),
             bench::sweepSim(ooo, info.id, w, kOooThreads)});
    }

    printFig1(in_order, set, all);
    printFigs3To8(ooo, all);
    return checkShapes(all) ? 0 : 1;
}
