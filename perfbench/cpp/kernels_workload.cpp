/**
 * @file
 * The `road` and `kron` workloads: the four kernel classes called
 * directly on one generated graph, round-robin, every output checked
 * by the benchmark's own certificates outside the timed calls.
 *
 * Modes are the repo's non-paper ones: BFS and CC kAdaptive, SSSP
 * delta-stepping at its default width and split, PageRank kGather at
 * a fixed depth.
 */

#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/delta_stepping.h"
#include "core/pagerank.h"
#include "core/sequential.h"
#include "graph/generators.h"
#include "obs/profile_report.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"

namespace perfbench {

namespace {

constexpr graph::VertexId kRoadSide = 1024;
constexpr unsigned kKronScale = 18;
constexpr unsigned kKronEdgeFactor = 16;
constexpr graph::Weight kKronMaxWeight = 255;
/**
 * BFS calls per round on `kron`. A Kronecker BFS costs 8 to 25 ms
 * depending on the source, a tenth or less of the other classes, and
 * with one call per round the run's median hinged on which few dozen
 * sources the seed drew (8.1 to 12.9 ms across seeds); each extra call
 * takes a fresh source.
 */
constexpr int kKronBfsCalls = 8;

/**
 * Span ring per telemetry track in a traced operation: room for every
 * round, barrier-wait and steal span of one road traversal, so the
 * barrier-wait fraction is computed from complete rings.
 */
constexpr std::size_t kSpansPerTrack = 1u << 16;

enum Class { kBfs = 0, kSssp, kCc, kPageRank, kNumClasses };
constexpr const char* kClassName[kNumClasses] = {"bfs", "sssp", "cc",
                                                 "pagerank"};

/** One class's operation: run it, time it, check it. */
struct OpOutcome {
    double seconds = 0.0;
    std::string error;
    rt::RunInfo run;
    std::uint64_t kernel_rounds = 0; ///< SSSP light phases
};

/** Per-class per-layer accumulators of the traced run. */
struct LayerSamples {
    Samples traced_ms, seq_ms, rounds, barrier_frac, steal_chunks,
        variability, expansions, relaxations, bucket_steps, stale_skips,
        iterations;
};

class KernelBench {
  public:
    explicit KernelBench(const Args& args)
        : args_(args), road_(args.workload == "road")
    {
    }

    Result
    run()
    {
        setUp();
        prepareChecks();
        Result result;
        SourceWalk walk(lcc_, args_.seed);

        // Warm-up round: checked, not timed.
        graph::VertexId source = walk.next();
        for (int c = 0; c < kNumClasses; ++c) {
            result.check(kClassName[c], runOp(c, source).error);
        }

        Samples ms[kNumClasses];
        double timed = 0.0;
        std::uint64_t ops = 0;
        for (std::uint64_t round = 0; timed < args_.seconds; ++round) {
            const graph::VertexId round_source = walk.next();
            for (int c = 0; c < kNumClasses; ++c) {
                const int calls = c == kBfs && !road_ ? kKronBfsCalls : 1;
                for (int i = 0; i < calls; ++i) {
                    source = i == 0 ? round_source : walk.next();
                    // The traced run alternates which of the untraced
                    // and traced calls goes first, so neither always
                    // finds the caches the other warmed.
                    const bool traced_first = args_.trace && round % 2 == 1;
                    if (traced_first) {
                        timed += traceOp(c, source, &result);
                    }
                    const OpOutcome op = runOp(c, source);
                    result.check(kClassName[c], op.error);
                    ms[c].add(op.seconds * 1e3);
                    timed += op.seconds;
                    ++ops;
                    if (args_.trace && !traced_first) {
                        timed += traceOp(c, source, &result);
                    }
                }
            }
        }

        if (!args_.trace) {
            result.set("setup_s", setup_s_);
            result.set("peak_rss_mb", peakRssMb());
            result.set("ops", static_cast<double>(ops));
            result.set("busy_s", timed);
            for (int c = 0; c < kNumClasses; ++c) {
                result.samples[std::string(kClassName[c]) + "_ms"] =
                    ms[c].values();
            }
            return result;
        }

        result.set("graph.generate_s", generate_s_);
        double traced = 0.0, untraced = 0.0;
        for (int c = 0; c < kNumClasses; ++c) {
            const LayerSamples& l = layer_[c];
            const std::string name = kClassName[c];
            const std::size_t n = l.traced_ms.count();
            traced += l.traced_ms.median();
            untraced += ms[c].median();
            result.set("core." + name + ".traced_ms", l.traced_ms.median(), n);
            result.set("core." + name + ".seq_ms", l.seq_ms.median(),
                       l.seq_ms.count());
            result.set("runtime.barrier_wait_frac." + name,
                       l.barrier_frac.mean(), n);
            result.set("runtime.variability." + name, l.variability.mean(),
                       n);
            if (c != kPageRank) {
                result.set("runtime.rounds." + name, l.rounds.mean(), n);
                result.set("runtime.steal_chunks." + name,
                           l.steal_chunks.mean(), n);
            }
        }
        result.set("core.bfs.expansions", layer_[kBfs].expansions.mean(),
                   layer_[kBfs].expansions.count());
        result.set("core.sssp.relaxations", layer_[kSssp].relaxations.mean(),
                   layer_[kSssp].relaxations.count());
        result.set("core.sssp.bucket_steps",
                   layer_[kSssp].bucket_steps.mean(),
                   layer_[kSssp].bucket_steps.count());
        result.set("core.sssp.stale_skips", layer_[kSssp].stale_skips.mean(),
                   layer_[kSssp].stale_skips.count());
        result.set("core.cc.relaxations", layer_[kCc].relaxations.mean(),
                   layer_[kCc].relaxations.count());
        result.set("core.pagerank.iterations",
                   layer_[kPageRank].iterations.mean(),
                   layer_[kPageRank].iterations.count());
        result.set("obs.trace_overhead", traced / untraced,
                   layer_[kBfs].traced_ms.count());
        return result;
    }

  private:
    /** Generate the graph and build the executor. */
    void
    setUp()
    {
        const Clock::time_point start = Clock::now();
        graph_.emplace(road_ ? graph::generators::roadNetwork(
                                   kRoadSide, kRoadSide, kGraphSeed)
                             : graph::generators::kronecker(
                                   kKronScale, kKronEdgeFactor,
                                   kKronMaxWeight, kGraphSeed));
        generate_s_ = secondsSince(start);
        exec_ = std::make_unique<rt::NativeExecutor>(kThreads);
        setup_s_ = secondsSince(start);
    }

    /** The checkers' own view of the input, and its reference answers. */
    void
    prepareChecks()
    {
        ref_ = toRefCsr(*graph_);
        lcc_ = ref::largestComponent(ref_);
        components_ = ref::componentCount(ref_);
        pagerank_ = ref::pageRank(ref_, kPageRankIterations, kDamping);
    }

    OpOutcome
    runOp(int c, graph::VertexId source)
    {
        const graph::Graph& g = *graph_;
        rt::NativeExecutor& exec = *exec_;
        OpOutcome out;
        Clock::time_point start = Clock::now();
        switch (c) {
          case kBfs: {
            const core::BfsResult r =
                core::bfs(exec, kThreads, g, source, graph::kNoVertex,
                          nullptr, rt::FrontierMode::kAdaptive);
            out.seconds = secondsSince(start);
            out.error = ref::checkBfs(ref_, source, r.level, r.parent,
                                      core::kNoLevel);
            out.run = r.run;
            break;
          }
          case kSssp: {
            const core::SsspResult r =
                core::deltaSteppingSssp(exec, kThreads, g, source);
            out.seconds = secondsSince(start);
            out.error = ref::checkSssp(ref_, source, r.dist, graph::kInfDist);
            out.run = r.run;
            out.kernel_rounds = r.rounds;
            break;
          }
          case kCc: {
            const core::ConnectedComponentsResult r =
                core::connectedComponents(exec, kThreads, g, nullptr,
                                          rt::FrontierMode::kAdaptive);
            out.seconds = secondsSince(start);
            out.error = ref::checkComponents(ref_, r.label,
                                             r.num_components, components_);
            out.run = r.run;
            break;
          }
          default: {
            const core::PageRankResult r = core::pageRank(
                exec, kThreads, g, kPageRankIterations, kDamping, nullptr,
                core::PageRankMode::kGather);
            out.seconds = secondsSince(start);
            out.error = ref::checkClose(r.rank, pagerank_,
                                        kPageRankTolerance);
            out.run = r.run;
            break;
          }
        }
        return out;
    }

    /**
     * The traced run's extra work for one operation: the same call
     * under a fresh telemetry session (counters and spans of this
     * operation only), then the core::seq baseline on the same input.
     * @return seconds of timed work done
     */
    double
    traceOp(int c, graph::VertexId source, Result* result)
    {
        LayerSamples& l = layer_[c];
        OpOutcome op;
        obs::ImbalanceSummary imbalance;
        std::uint64_t counters[obs::kNumCounters] = {};
        {
            obs::TelemetrySession session(kSpansPerTrack);
            op = runOp(c, source);
            const obs::Recorder& rec = session.recorder();
            for (int k = 0; k < obs::kNumCounters; ++k) {
                counters[k] = rec.totalCounter(static_cast<obs::Counter>(k));
            }
            imbalance = obs::imbalanceFromRecorder(rec);
            if (rec.totalDropped() != 0) {
                std::fprintf(stderr,
                             "perfbench: %llu spans dropped in a traced %s\n",
                             static_cast<unsigned long long>(
                                 rec.totalDropped()),
                             kClassName[c]);
            }
        }
        result->check(kClassName[c], op.error);
        const auto counter = [&](obs::Counter k) {
            return static_cast<double>(counters[static_cast<int>(k)]);
        };
        l.traced_ms.add(op.seconds * 1e3);
        double barrier = 0.0;
        for (const obs::ThreadImbalance& t : imbalance.threads) {
            barrier += t.barrier_frac;
        }
        l.barrier_frac.add(imbalance.threads.empty()
                               ? 0.0
                               : barrier / static_cast<double>(
                                               imbalance.threads.size()));
        l.variability.add(op.run.variability);
        // Delta-stepping runs no frontier engine; its rounds are its
        // barrier-separated light phases.
        l.rounds.add(c == kSssp ? static_cast<double>(op.kernel_rounds)
                                : counter(obs::Counter::kDenseRounds) +
                                      counter(obs::Counter::kSparseRounds) +
                                      counter(obs::Counter::kPullRounds));
        l.steal_chunks.add(counter(obs::Counter::kStealChunks));
        l.expansions.add(counter(obs::Counter::kExpansions));
        l.relaxations.add(counter(obs::Counter::kRelaxations));
        l.bucket_steps.add(counter(obs::Counter::kBucketSteps));
        l.stale_skips.add(counter(obs::Counter::kStaleSkips));
        l.iterations.add(counter(obs::Counter::kIterations));

        const graph::Graph& g = *graph_;
        const Clock::time_point start = Clock::now();
        std::size_t sink = 0;
        switch (c) {
          case kBfs:
            sink = core::seq::bfsLevels(g, source).size();
            break;
          case kSssp:
            sink = core::seq::sssp(g, source).size();
            break;
          case kCc:
            sink = core::seq::componentLabels(g).size();
            break;
          default:
            sink = core::seq::pageRank(g, kPageRankIterations, kDamping)
                       .size();
            break;
        }
        const double seq = secondsSince(start);
        if (sink != g.numVertices()) {
            std::fprintf(stderr, "perfbench: seq %s output size\n",
                         kClassName[c]);
        }
        l.seq_ms.add(seq * 1e3);
        return op.seconds + seq;
    }

    const Args& args_;
    const bool road_;
    std::optional<graph::Graph> graph_;
    std::unique_ptr<rt::NativeExecutor> exec_;
    double setup_s_ = 0.0, generate_s_ = 0.0;

    ref::Csr ref_;
    std::vector<ref::Vertex> lcc_;
    std::uint64_t components_ = 0;
    std::vector<double> pagerank_;

    LayerSamples layer_[kNumClasses];
};

} // namespace

Result
runKernels(const Args& args)
{
    return KernelBench(args).run();
}

} // namespace perfbench
