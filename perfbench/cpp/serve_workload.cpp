/**
 * @file
 * The `serve-churn` workload: an in-process serve::Server over a
 * Kronecker graph, with the store's reordering and the server's own
 * kernel choices, driven by four closed-loop connections.
 *
 *  - Three readers alternate bfs_dist and sssp_dist from sources never
 *    repeated within a run, so every point query runs a kernel.
 *  - One writer loops: an ingest batch, wait for its ack, then
 *    component and rank. Both land on the fresh epoch the ingest made,
 *    which no reader asks those classes on, so they always recompute.
 *    The store compacts once inside every window.
 *
 * Pinning the hit/miss pattern this way keeps the medians off the
 * cache-hit/kernel-run boundary, where they flip between runs.
 * Answers are checked after the window, on a seeded sample, against
 * the benchmark's own BFS, Dijkstra, union-find and power iteration
 * over the edge multiset of the epoch each response names.
 */

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "serve/server.h"
#include "serve/store.h"

namespace perfbench {

namespace {

using crono::Rng;

/**
 * Scale 16 keeps kernel runs near ten milliseconds, so the single
 * writer completes well over a hundred loops in a window: enough
 * component and rank samples for a median that repeats.
 */
constexpr unsigned kScale = 16;
constexpr unsigned kEdgeFactor = 8;
constexpr graph::Weight kMaxWeight = 64;
constexpr int kShards = 4;
constexpr int kWorkers = 2;
constexpr int kReaders = 3;
/** Small batches: a whole run adds about 5 % to the edge count. */
constexpr std::size_t kIngestEdges = 256;
/**
 * Compaction period in batches. The writer makes 25-45 loops in each
 * process's third of a 20 s run, so this puts exactly one compaction
 * in every window. A compaction stalls every connection for a few
 * hundred milliseconds, at most three SSSP requests per compaction, so
 * the three of a run stay out of the ten samples above the SSSP tail.
 * With a compaction every 8 batches the tail sat at the edge of the
 * stalled requests and jumped between runs (206 to 350 ms); every 64
 * let the overlay chain grow until materializing it dominated `cc_ms`.
 */
constexpr std::uint32_t kCompactBatches = 24;
/** Answers checked per class per phase (seeded sample). */
constexpr std::size_t kCheckedPerClass = 16;
/** Span ring per track while traced (kernel spans of a whole phase). */
constexpr std::size_t kSpansPerTrack = 1u << 16;

/** One answered request, as the client saw it. */
struct Record {
    serve::Op op = serve::Op::kPing;
    graph::VertexId source = 0;
    graph::VertexId target = 0;
    serve::Status status = serve::Status::kOk;
    std::uint64_t epoch = 0;
    std::uint64_t value = 0;
    double ms = 0.0;
    bool warmup = false;
};

/**
 * The serving stack. Members are destroyed in reverse order (server,
 * executor, store), so it is only ever destroyed, never reassigned.
 */
struct Stack {
    std::unique_ptr<serve::GraphStore> store;
    std::unique_ptr<rt::NativeExecutor> exec;
    std::unique_ptr<serve::Server> server;
};

/** What one phase (warm-up plus window) leaves behind. */
struct Phase {
    std::vector<Record> reads;        ///< bfs/sssp/component/rank
    std::vector<Record> ingests;      ///< in batch order
    std::vector<bool> compacted;      ///< per ingest: it compacted
    double window_s = 0.0;
    std::uint64_t window_ops = 0;
};

Samples
latencies(const std::vector<Record>& records, serve::Op op, bool with_warmup)
{
    Samples s;
    for (const Record& r : records) {
        if (r.op == op && (with_warmup || !r.warmup)) {
            s.add(r.ms);
        }
    }
    return s;
}

class ServeBench {
  public:
    explicit ServeBench(const Args& args) : args_(args) {}

    Result
    run()
    {
        std::optional<Stack> stack;
        const double setup_s = build(&stack.emplace(), true);
        prepareChecks();

        Result result;
        const Phase plain = runPhase(*stack->server, args_.seconds, &result);
        stack.reset();

        const serve::Op classes[] = {serve::Op::kBfsDist, serve::Op::kSsspDist,
                                     serve::Op::kComponent,
                                     serve::Op::kRankScore};
        if (!args_.trace) {
            const char* names[] = {"bfs_ms", "sssp_ms", "cc_ms",
                                   "pagerank_ms"};
            for (int c = 0; c < 4; ++c) {
                result.samples[names[c]] =
                    latencies(plain.reads, classes[c], false).values();
            }
            result.set("setup_s", setup_s);
            result.set("peak_rss_mb", peakRssMb());
            result.set("ops", static_cast<double>(plain.window_ops));
            result.set("busy_s", plain.window_s);
            return result;
        }

        tracedPhase(args_.seconds, &result);
        double traced = 0.0, untraced = 0.0;
        for (const serve::Op op : classes) {
            traced += latencies(traced_.reads, op, false).median();
            untraced += latencies(plain.reads, op, false).median();
        }
        result.set("obs.trace_overhead", traced / untraced);
        result.set("graph.generate_s", generate_s_.median(),
                   generate_s_.count());
        return result;
    }

  private:
    /**
     * Generate the graph and build store, executor and server.
     * @return seconds of set-up (the checkers' copy is not counted)
     */
    double
    build(Stack* stack, bool keep_input)
    {
        const Clock::time_point start = Clock::now();
        graph::Graph g = graph::generators::kronecker(
            kScale, kEdgeFactor, kMaxWeight, kGraphSeed);
        const double generate = secondsSince(start);
        generate_s_.add(generate);
        if (keep_input) {
            base_.emplace(g);
        }
        const Clock::time_point construct = Clock::now();
        serve::StoreConfig store_cfg;
        store_cfg.num_shards = kShards;
        store_cfg.reordering = graph::Reordering::kDegreeSort;
        store_cfg.compact_batches = kCompactBatches;
        stack->store =
            std::make_unique<serve::GraphStore>(std::move(g), store_cfg);
        stack->exec = std::make_unique<rt::NativeExecutor>(kThreads);
        serve::ServerConfig server_cfg;
        server_cfg.num_workers = kWorkers;
        server_cfg.query.nthreads = kThreads;
        server_cfg.query.pagerank_iterations = kPageRankIterations;
        server_cfg.query.damping = kDamping;
        stack->server = std::make_unique<serve::Server>(
            *stack->store, *stack->exec, server_cfg);
        stack->server->start();
        return generate + secondsSince(construct);
    }

    void
    prepareChecks()
    {
        const ref::Csr csr = toRefCsr(*base_);
        base_arcs_.reserve(csr.arcs.size());
        for (ref::Vertex v = 0; v < csr.numVertices(); ++v) {
            for (const ref::Arc& a : csr.arcsOf(v)) {
                base_arcs_.push_back({v, a.dst, a.weight});
            }
        }
        targets_ = ref::largestComponent(csr);
        sources_ = std::make_unique<SourceWalk>(targets_, args_.seed);
    }

    /** Ingest batch @p k of this run (deterministic in the seed). */
    std::vector<graph::Edge>
    batch(std::uint64_t k) const
    {
        Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + k * 7919 + 11);
        const graph::VertexId n = base_->numVertices();
        std::vector<graph::Edge> edges;
        edges.reserve(kIngestEdges);
        while (edges.size() < kIngestEdges) {
            const auto src = static_cast<graph::VertexId>(rng.nextBelow(n));
            const auto dst = static_cast<graph::VertexId>(rng.nextBelow(n));
            if (src != dst) {
                edges.push_back({src, dst, static_cast<graph::Weight>(
                                               rng.nextInRange(1, kMaxWeight))});
            }
        }
        return edges;
    }

    graph::VertexId
    nextSource()
    {
        std::lock_guard<std::mutex> lock(source_mutex_);
        return sources_->next();
    }

    static Record
    call(serve::Client& client, serve::Request req, bool warmup)
    {
        Record rec;
        rec.op = req.op;
        rec.source = req.source;
        rec.target = req.target;
        rec.warmup = warmup;
        const Clock::time_point start = Clock::now();
        const serve::Response resp = client.call(std::move(req));
        rec.ms = secondsSince(start) * 1e3;
        rec.status = resp.status;
        rec.epoch = resp.epoch;
        rec.value = resp.values.empty() ? serve::kNoValue : resp.values[0];
        return rec;
    }

    /**
     * One untimed warm-up pass of every connection, then the timed
     * window: readers and writer loop until @p seconds have passed.
     */
    Phase
    runPhase(serve::Server& server, double seconds, Result* result)
    {
        Phase phase;
        std::mutex mutex;
        std::atomic<std::uint64_t> window_ops{0};
        std::atomic<std::int64_t> last_done_ns{0};
        Clock::time_point window_start;
        std::atomic<bool> go{false};
        std::atomic<int> warmed{0};
        const int connections = kReaders + 1;

        const auto waitForWindow = [&] {
            warmed.fetch_add(1);
            while (!go.load()) {
                std::this_thread::yield();
            }
        };
        const auto done = [&](const Record& rec) {
            if (!rec.warmup) {
                window_ops.fetch_add(1);
                const std::int64_t ns =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - window_start)
                        .count();
                std::int64_t prev = last_done_ns.load();
                while (prev < ns && !last_done_ns.compare_exchange_weak(prev, ns)) {
                }
            }
        };

        std::vector<std::thread> threads;
        for (int r = 0; r < kReaders; ++r) {
            threads.emplace_back([&, r] {
                serve::Client client(server);
                Rng rng(args_.seed * 31 + static_cast<std::uint64_t>(r) + 1);
                std::vector<Record> mine;
                const auto one = [&](serve::Op op, bool warmup) {
                    serve::Request req;
                    req.op = op;
                    req.source = nextSource();
                    req.target = targets_[rng.nextBelow(targets_.size())];
                    mine.push_back(call(client, std::move(req), warmup));
                    done(mine.back());
                };
                one(serve::Op::kBfsDist, true);
                one(serve::Op::kSsspDist, true);
                waitForWindow();
                const Clock::time_point deadline =
                    window_start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
                for (std::uint64_t i = r; Clock::now() < deadline; ++i) {
                    one(i % 2 == 0 ? serve::Op::kBfsDist : serve::Op::kSsspDist,
                        false);
                }
                std::lock_guard<std::mutex> lock(mutex);
                phase.reads.insert(phase.reads.end(), mine.begin(), mine.end());
            });
        }
        threads.emplace_back([&] {
            serve::Client client(server);
            Rng rng(args_.seed * 31 + 97);
            std::vector<Record> reads, ingests;
            std::vector<bool> compacted;
            const auto loop = [&](bool warmup) {
                serve::Request ingest;
                ingest.op = serve::Op::kIngest;
                ingest.edges = batch(ingests.size());
                ingests.push_back(call(client, std::move(ingest), warmup));
                done(ingests.back());
                for (const serve::Op op :
                     {serve::Op::kComponent, serve::Op::kRankScore}) {
                    serve::Request req;
                    req.op = op;
                    req.source = targets_[rng.nextBelow(targets_.size())];
                    reads.push_back(call(client, std::move(req), warmup));
                    done(reads.back());
                }
                // Only this connection moves epochs: a component answer
                // past the ingest's epoch means the ingest compacted.
                compacted.push_back(reads[reads.size() - 2].epoch >
                                    ingests.back().epoch);
            };
            loop(true);
            waitForWindow();
            const Clock::time_point deadline =
                window_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
            while (Clock::now() < deadline) {
                loop(false);
            }
            std::lock_guard<std::mutex> lock(mutex);
            phase.reads.insert(phase.reads.end(), reads.begin(), reads.end());
            phase.ingests = std::move(ingests);
            phase.compacted = std::move(compacted);
        });

        while (warmed.load() < connections) {
            std::this_thread::yield();
        }
        window_start = Clock::now();
        go.store(true);
        for (std::thread& t : threads) {
            t.join();
        }
        phase.window_s = static_cast<double>(last_done_ns.load()) / 1e9;
        phase.window_ops = window_ops.load();
        checkPhase(phase, result);
        return phase;
    }

    /** The checkers' graph after the first @p batches ingests. */
    ref::Csr
    epochCsr(std::size_t batches) const
    {
        std::vector<ref::Edge> edges = base_arcs_;
        for (std::size_t k = 0; k < batches; ++k) {
            for (const graph::Edge& e : batch(k)) {
                edges.push_back({e.src, e.dst, e.weight});
                edges.push_back({e.dst, e.src, e.weight});
            }
        }
        return ref::Csr::fromEdges(base_->numVertices(), edges, false);
    }

    /**
     * Count every request; check a seeded sample of the answers of
     * each class against the edge multiset of the epoch it names.
     */
    void
    checkPhase(const Phase& phase, Result* result) const
    {
        for (const Record& r : phase.ingests) {
            result->check("ingest", r.status == serve::Status::kOk
                                        ? ""
                                        : serve::statusName(r.status));
        }
        // Epoch -> batches applied: compactions add epochs, not edges.
        const auto batchesAt = [&](std::uint64_t epoch) {
            std::size_t k = 0;
            while (k < phase.ingests.size() && phase.ingests[k].epoch <= epoch) {
                ++k;
            }
            return k;
        };
        std::map<std::size_t, std::vector<const Record*>> sample;
        Rng rng(args_.seed * 131 + phase.reads.size());
        for (const serve::Op op : {serve::Op::kBfsDist, serve::Op::kSsspDist,
                                   serve::Op::kComponent,
                                   serve::Op::kRankScore}) {
            std::vector<const Record*> ok;
            for (const Record& r : phase.reads) {
                if (r.op != op) {
                    continue;
                }
                if (r.status != serve::Status::kOk) {
                    result->check(serve::opName(op),
                                  serve::statusName(r.status));
                } else {
                    ok.push_back(&r);
                }
            }
            for (std::size_t i = 0; i < kCheckedPerClass && !ok.empty(); ++i) {
                const std::size_t j = rng.nextBelow(ok.size());
                sample[batchesAt(ok[j]->epoch)].push_back(ok[j]);
                ok.erase(ok.begin() + static_cast<std::ptrdiff_t>(j));
            }
            // The unsampled rest count as attempted and answered.
            for (std::size_t i = 0; i < ok.size(); ++i) {
                result->check(serve::opName(op), "");
            }
        }
        for (const auto& [batches, records] : sample) {
            const ref::Csr g = epochCsr(batches);
            for (const Record* r : records) {
                result->check(serve::opName(r->op), verify(g, *r));
            }
        }
    }

    static std::string
    verify(const ref::Csr& g, const Record& r)
    {
        std::uint64_t want = 0;
        switch (r.op) {
          case serve::Op::kBfsDist:
            want = ref::bfsLevels(g, r.source)[r.target];
            break;
          case serve::Op::kSsspDist:
            want = ref::dijkstra(g, r.source)[r.target];
            break;
          case serve::Op::kComponent:
            want = ref::componentMin(g)[r.source];
            break;
          default: {
            const double got = std::bit_cast<double>(r.value);
            const double score =
                ref::pageRank(g, kPageRankIterations, kDamping)[r.source];
            return ref::checkClose({&got, 1}, {&score, 1},
                                   kPageRankTolerance);
          }
        }
        // ref::kUnreached and serve::kNoValue are both all-ones.
        if (r.value != want) {
            return std::string(serve::opName(r.op)) + " from " +
                   std::to_string(r.source) + ": answered " +
                   std::to_string(r.value) + ", expected " +
                   std::to_string(want);
        }
        return {};
    }

    /**
     * The traced half: a fresh stack built and run under a telemetry
     * session, then the store costs replayed on a second GraphStore.
     */
    void
    tracedPhase(double seconds, Result* result)
    {
        std::string stats;
        std::vector<std::uint64_t> kernel_ns[4];
        std::uint64_t reorder_ms = 0, compactions = 0, requests = 0,
                      batches = 0;
        {
            obs::TelemetrySession session(kSpansPerTrack);
            std::optional<Stack> stack;
            build(&stack.emplace(), false);
            traced_ = runPhase(*stack->server, seconds, result);
            serve::Request req;
            req.op = serve::Op::kStats;
            stats = serve::Client(*stack->server).call(std::move(req)).text;
            compactions = stack->store->stats().compactions;
            stack.reset();

            const obs::Recorder& rec = session.recorder();
            reorder_ms = rec.totalCounter(obs::Counter::kReorderMs);
            rec.forEachTrack([&](obs::TrackKind kind, int tid,
                                 const obs::Track& t) {
                if (kind != obs::TrackKind::kHost) {
                    return;
                }
                if (tid >= 256) { // the server's shard workers
                    requests += t.counter(obs::Counter::kServeRequests);
                    batches += t.counter(obs::Counter::kServeBatches);
                }
                if (tid != 0) {
                    return;
                }
                const char* names[] = {"BFS", "SSSP_DIJK", "CONN_COMP",
                                       "PAGE_RANK"};
                for (const obs::SpanEvent& ev : t.spans()) {
                    for (int c = 0; c < 4; ++c) {
                        if (ev.cat == obs::SpanCat::kKernel &&
                            std::strcmp(ev.name, names[c]) == 0) {
                            kernel_ns[c].push_back(ev.end - ev.begin);
                        }
                    }
                }
            });
            if (rec.totalDropped() != 0) {
                std::fprintf(stderr, "perfbench: traced serve dropped spans\n");
            }
        }

        const serve::Op classes[] = {serve::Op::kBfsDist, serve::Op::kSsspDist,
                                     serve::Op::kComponent,
                                     serve::Op::kRankScore};
        const char* names[] = {"bfs", "sssp", "cc", "pagerank"};

        // Server-side latency: the stats document's exact mean (its
        // quantiles are histogram bucket midpoints).
        double server_ms[4] = {}, server_n[4] = {};
        obs::json::Value doc;
        if (!obs::json::parse(stats, doc) || doc.find("classes") == nullptr) {
            std::fprintf(stderr, "perfbench: unreadable stats document\n");
        } else {
            for (const obs::json::Value& cls : doc.find("classes")->arr) {
                for (int c = 0; c < 4; ++c) {
                    if (cls.find("op")->str == serve::opName(classes[c])) {
                        server_ms[c] = cls.find("mean_seconds")->num * 1e3;
                        server_n[c] = cls.find("count")->num;
                    }
                }
            }
        }

        std::uint64_t kernel_runs = 0;
        double kernel_point_ms = 0.0, server_point_ms = 0.0,
               client_ms = 0.0, server_all_ms = 0.0, point_n = 0.0,
               all_n = 0.0;
        for (int c = 0; c < 4; ++c) {
            Samples kernel;
            for (const std::uint64_t ns : kernel_ns[c]) {
                kernel.add(static_cast<double>(ns) / 1e6);
            }
            kernel_runs += kernel.count();
            const Samples client = latencies(traced_.reads, classes[c], true);
            result->set(std::string("serve.server.") + names[c] + "_ms",
                        server_ms[c], static_cast<std::size_t>(server_n[c]));
            result->set(std::string("serve.kernel.") + names[c] + "_ms",
                        kernel.median(), kernel.count());
            if (c < 2) {
                kernel_point_ms += kernel.mean() * kernel.count();
                server_point_ms += server_ms[c] * server_n[c];
                point_n += server_n[c];
            }
            client_ms += client.mean() * client.count();
            server_all_ms += server_ms[c] * server_n[c];
            all_n += server_n[c];
        }
        std::uint64_t kernel_bound = 0;
        for (const Record& r : traced_.reads) {
            kernel_bound += r.status == serve::Status::kOk ? 1 : 0;
        }
        if (kernel_runs != kernel_bound) {
            std::fprintf(stderr,
                         "perfbench: %llu kernel runs for %llu kernel-bound "
                         "requests: the miss pattern did not hold\n",
                         static_cast<unsigned long long>(kernel_runs),
                         static_cast<unsigned long long>(kernel_bound));
        }
        result->set("serve.kernel_runs", static_cast<double>(kernel_runs));
        result->set("serve.queue_wait_ms",
                    (server_point_ms - kernel_point_ms) / point_n,
                    static_cast<std::size_t>(point_n));
        result->set("serve.transport_ms",
                    (client_ms - server_all_ms) / all_n,
                    static_cast<std::size_t>(all_n));
        result->set("serve.batch_size",
                    batches == 0 ? 0.0
                                 : static_cast<double>(requests) /
                                       static_cast<double>(batches),
                    batches);
        result->set("graph.reorder_s",
                    static_cast<double>(reorder_ms) / 1e3 /
                        static_cast<double>(1 + compactions),
                    1 + compactions);

        Samples ingest, compact;
        for (std::size_t k = 0; k < traced_.ingests.size(); ++k) {
            (traced_.compacted[k] ? compact : ingest)
                .add(traced_.ingests[k].ms);
        }
        result->set("serve.ingest_ms", ingest.median(), ingest.count());
        result->set("serve.compact_ms", compact.median(), compact.count());
        replayStore(traced_.ingests.size(), result);
    }

    /** Replay @p batches ingests into a second store, timing each. */
    void
    replayStore(std::size_t batches, Result* result) const
    {
        serve::StoreConfig store_cfg;
        store_cfg.num_shards = kShards;
        store_cfg.reordering = graph::Reordering::kDegreeSort;
        store_cfg.compact_batches = kCompactBatches;
        serve::GraphStore store(graph::Graph(*base_), store_cfg);
        Samples ingest, materialize;
        for (std::size_t k = 0; k < batches; ++k) {
            const std::vector<graph::Edge> edges = batch(k);
            Clock::time_point start = Clock::now();
            const serve::Status s = store.ingestBatch(edges);
            ingest.add(secondsSince(start) * 1e3);
            const std::shared_ptr<const serve::Snapshot> snap = store.snapshot();
            start = Clock::now();
            const graph::Graph& g = snap->materialized();
            materialize.add(secondsSince(start) * 1e3);
            if (s != serve::Status::kOk || g.numVertices() != base_->numVertices()) {
                std::fprintf(stderr, "perfbench: replayed ingest failed\n");
            }
        }
        result->set("serve.store.ingest_ms", ingest.median(), ingest.count());
        result->set("serve.store.materialize_ms", materialize.median(),
                    materialize.count());
    }

    const Args& args_;
    Samples generate_s_;
    std::optional<graph::Graph> base_;
    std::vector<ref::Edge> base_arcs_;
    std::unique_ptr<SourceWalk> sources_;
    std::mutex source_mutex_;
    std::vector<ref::Vertex> targets_; ///< the largest component
    Phase traced_;
};

} // namespace

Result
runServe(const Args& args)
{
    return ServeBench(args).run();
}

} // namespace perfbench
