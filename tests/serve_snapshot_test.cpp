/**
 * @file
 * Snapshot-isolation conformance for the serve stack (DESIGN.md
 * §17.2): a pinned epoch answers every query identically forever —
 * across later ingests, across compactions, across reorderings — and
 * concurrent clients hammering a live server against a live ingest
 * stream never observe a torn or cross-epoch answer. Each epoch's
 * merged CSR must equal a keepAll build of the same edge multiset.
 * The concurrent tests are the TSan leg's serve workload in
 * analysis.yml: eight client threads, one mutator, every interleaving
 * the scheduler cares to produce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <latch>
#include <map>
#include <memory>
#include <thread>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "serve/query.h"
#include "serve/server.h"
#include "serve/store.h"

namespace crono::serve {
namespace {

/** Shared test input: small enough for TSan, skewed like kron-16. */
graph::Graph
testGraph()
{
    return graph::generators::kronecker(/*scale=*/8, /*edge_factor=*/6,
                                        /*max_weight=*/32, /*seed=*/7);
}

std::vector<graph::Edge>
randomBatch(Rng* rng, graph::VertexId n, int count)
{
    std::vector<graph::Edge> edges;
    for (int i = 0; i < count; ++i) {
        edges.push_back(
            {static_cast<graph::VertexId>(rng->nextBelow(n)),
             static_cast<graph::VertexId>(rng->nextBelow(n)),
             static_cast<graph::Weight>(1 + rng->nextBelow(32))});
    }
    return edges;
}

TEST(ServeSnapshot, PinnedEpochSurvivesIngestAndCompaction)
{
    StoreConfig cfg;
    cfg.reordering = graph::Reordering::kDegreeSort;
    GraphStore store(testGraph(), cfg);
    rt::NativeExecutor exec(2);
    QueryEngine engine(store, exec);

    const std::shared_ptr<const Snapshot> pinned = store.snapshot();
    const graph::VertexId n = pinned->numVertices();

    // Reference answers at the pinned epoch, one per query class.
    Request sssp;
    sssp.op = Op::kSsspDist;
    sssp.source = 3;
    sssp.target = n - 1;
    Request comp;
    comp.op = Op::kComponent;
    comp.source = 5;
    Request rank;
    rank.op = Op::kRankScore;
    rank.source = 2;
    Request topd;
    topd.op = Op::kTopDegree;
    topd.k = 8;
    const Response sssp0 = engine.executeOn(sssp, pinned);
    const Response comp0 = engine.executeOn(comp, pinned);
    const Response rank0 = engine.executeOn(rank, pinned);
    const Response topd0 = engine.executeOn(topd, pinned);
    ASSERT_EQ(sssp0.status, Status::kOk);
    ASSERT_EQ(sssp0.epoch, pinned->epoch());

    // Mutate the store hard: several batches, then a compaction that
    // rebuilds the base and re-runs the reordering.
    Rng rng(99);
    for (int b = 0; b < 5; ++b) {
        ASSERT_EQ(store.ingestBatch(randomBatch(&rng, n, 16)),
                  Status::kOk);
    }
    const std::uint64_t compacted_epoch = store.compact();
    EXPECT_GT(compacted_epoch, pinned->epoch());
    EXPECT_EQ(store.snapshot()->deltaEdges(), 0u);

    // The pinned epoch still answers bit-for-bit identically, even
    // though its arrays were evicted from the engine's LRU by newer
    // epochs' results in between.
    const Response sssp1 = engine.executeOn(sssp, pinned);
    const Response comp1 = engine.executeOn(comp, pinned);
    const Response rank1 = engine.executeOn(rank, pinned);
    const Response topd1 = engine.executeOn(topd, pinned);
    EXPECT_EQ(sssp1.epoch, pinned->epoch());
    EXPECT_EQ(sssp1.values, sssp0.values);
    EXPECT_EQ(comp1.values, comp0.values);
    EXPECT_EQ(rank1.values, rank0.values);
    EXPECT_EQ(topd1.values, topd0.values);
    EXPECT_EQ(topd1.vertices, topd0.vertices);
}

TEST(ServeSnapshot, CompactionIsSemanticallyInvisible)
{
    // Ingest a batch, answer queries on the merged epoch, then compact
    // (same edge multiset, re-run reordering) and re-ask: every answer
    // must be identical although the internal id space was renumbered
    // underneath — under every reordering.
    for (const graph::Reordering r : graph::allReorderings()) {
        SCOPED_TRACE(graph::reorderingName(r));
        StoreConfig cfg;
        cfg.reordering = r;
        GraphStore store(testGraph(), cfg);
        rt::NativeExecutor exec(2);
        QueryEngine engine(store, exec);
        const graph::VertexId n = store.snapshot()->numVertices();

        Rng rng(5);
        ASSERT_EQ(store.ingestBatch(randomBatch(&rng, n, 40)),
                  Status::kOk);
        const std::shared_ptr<const Snapshot> merged = store.snapshot();
        ASSERT_GT(merged->deltaEdges(), 0u);
        store.compact();
        const std::shared_ptr<const Snapshot> folded = store.snapshot();
        ASSERT_EQ(folded->deltaEdges(), 0u);
        ASSERT_EQ(folded->numEdges(), merged->numEdges());

        Rng pick(17);
        for (int i = 0; i < 12; ++i) {
            Request req;
            req.op = (i % 3 == 0)   ? Op::kSsspDist
                     : (i % 3 == 1) ? Op::kBfsDist
                                    : Op::kComponent;
            req.source = static_cast<graph::VertexId>(pick.nextBelow(n));
            req.target = static_cast<graph::VertexId>(pick.nextBelow(n));
            const Response a = engine.executeOn(req, merged);
            const Response b = engine.executeOn(req, folded);
            ASSERT_EQ(a.status, Status::kOk);
            ASSERT_EQ(b.status, Status::kOk);
            EXPECT_EQ(a.values, b.values) << "query " << i;
        }

        // Top-k answers must also match: canonical external-id
        // ordering makes them independent of the internal renumbering.
        Request topk;
        topk.op = Op::kTopDegree;
        topk.k = 10;
        const Response ta = engine.executeOn(topk, merged);
        const Response tb = engine.executeOn(topk, folded);
        EXPECT_EQ(ta.values, tb.values);
        EXPECT_EQ(ta.vertices, tb.vertices);
    }
}

/**
 * Every row of @p snap's CSR must be ascending by (dst, weight) and,
 * mapped back to external ids, equal @p oracle's row as a multiset.
 */
void
expectSameGraph(const Snapshot& snap, const graph::Graph& oracle)
{
    using Slot = std::pair<graph::VertexId, graph::Weight>;
    const graph::Graph& g = snap.materialized();
    ASSERT_EQ(g.numVertices(), oracle.numVertices());
    ASSERT_EQ(g.numEdges(), oracle.numEdges());
    ASSERT_EQ(snap.numEdges(), oracle.numEdges());
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        const std::span<const graph::VertexId> nbr = g.neighbors(v);
        const std::span<const graph::Weight> w = g.weights(v);
        std::vector<Slot> got;
        for (std::size_t i = 0; i < nbr.size(); ++i) {
            if (i > 0) {
                ASSERT_LE(Slot(nbr[i - 1], w[i - 1]), Slot(nbr[i], w[i]))
                    << "row " << v << " not ascending";
            }
            got.emplace_back(snap.toExternal(nbr[i]), w[i]);
        }
        std::sort(got.begin(), got.end());
        const graph::VertexId ext = snap.toExternal(v);
        const std::span<const graph::VertexId> onbr = oracle.neighbors(ext);
        const std::span<const graph::Weight> ow = oracle.weights(ext);
        std::vector<Slot> want;
        for (std::size_t i = 0; i < onbr.size(); ++i) {
            want.emplace_back(onbr[i], ow[i]);
        }
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "external row " << ext;
    }
}

/**
 * Ingest batches with a self loop, parallel edges and copies of base
 * edges into a store over @p base, checking each epoch's CSR against
 * a keepAll GraphBuilder build of base plus batches, then once more
 * after a compaction.
 */
void
checkMergeAgainstBuilder(const graph::Graph& base)
{
    const graph::VertexId n = base.numVertices();
    const bool undirected = base.undirected();
    for (const graph::Reordering r : graph::allReorderings()) {
        SCOPED_TRACE(graph::reorderingName(r));
        StoreConfig cfg;
        cfg.reordering = r;
        GraphStore store(graph::Graph(base), cfg);

        graph::GraphBuilder oracle(n, undirected);
        for (graph::VertexId v = 0; v < n; ++v) {
            const std::span<const graph::VertexId> nbr = base.neighbors(v);
            const std::span<const graph::Weight> w = base.weights(v);
            for (std::size_t i = 0; i < nbr.size(); ++i) {
                if (!undirected || v < nbr[i]) { // builder re-mirrors
                    oracle.addEdge(v, nbr[i], w[i]);
                }
            }
        }

        Rng rng(41);
        for (int b = 0; b < 4; ++b) {
            std::vector<graph::Edge> batch = randomBatch(&rng, n, 6);
            batch.push_back({2, 2, 9});                  // self loop
            batch.push_back({0, n - 1, 4});              // parallel...
            batch.push_back({0, n - 1, 4});              // ...twice
            batch.push_back({0, n - 1, 1});              // other weight
            const graph::VertexId v = static_cast<graph::VertexId>(b);
            ASSERT_GT(base.degree(v), 0u);               // base copy
            batch.push_back({v, base.neighbors(v)[0], base.weights(v)[0]});
            ASSERT_EQ(store.ingestBatch(batch), Status::kOk);
            for (const graph::Edge& e : batch) {
                oracle.addEdge(e.src, e.dst, e.weight);
            }
            const graph::Graph want = graph::GraphBuilder(oracle).build(
                graph::GraphBuilder::DedupPolicy::keepAll);
            expectSameGraph(*store.snapshot(), want);
        }
        store.compact();
        const std::shared_ptr<const Snapshot> folded = store.snapshot();
        EXPECT_EQ(folded->deltaEdges(), 0u);
        EXPECT_EQ(folded->deltaDepth(), 0u);
        expectSameGraph(*folded,
                        std::move(oracle).build(
                            graph::GraphBuilder::DedupPolicy::keepAll));
    }
}

TEST(ServeSnapshot, MergeMatchesKeepAllBuildUndirected)
{
    checkMergeAgainstBuilder(testGraph());
}

TEST(ServeSnapshot, MergeMatchesKeepAllBuildDirected)
{
    graph::GraphBuilder b(8, /*undirected=*/false);
    b.addEdge(0, 1, 3);
    b.addEdge(0, 1, 2); // parallel edge in the base
    b.addEdge(0, 2, 1);
    b.addEdge(1, 2, 2);
    b.addEdge(2, 0, 5);
    b.addEdge(3, 4, 1);
    b.addEdge(4, 3, 1);
    b.addEdge(4, 5, 2);
    b.addEdge(5, 6, 9);
    b.addEdge(6, 7, 1); // vertex 7 has no out-edges
    const graph::Graph base =
        std::move(b).build(graph::GraphBuilder::DedupPolicy::keepAll);
    ASSERT_FALSE(base.undirected());
    checkMergeAgainstBuilder(base);
}

TEST(ServeSnapshot, ConcurrentClientsAgainstLiveIngest)
{
    // The tentpole stress: 8 closed-loop clients against a running
    // server while the store churns epochs underneath. Snapshot
    // isolation over the wire means: any two kOk responses for the
    // same (op, source, target) carrying the same epoch must carry
    // the same values. We record every answer and verify globally.
    StoreConfig cfg;
    cfg.reordering = graph::Reordering::kDegreeSort;
    cfg.compact_batches = 4; // force auto-compactions mid-run
    GraphStore store(testGraph(), cfg);
    rt::NativeExecutor exec(2);
    ServerConfig scfg;
    scfg.num_workers = 2;
    scfg.query.nthreads = 2;
    scfg.query.pagerank_iterations = 5;
    Server server(store, exec, scfg);
    server.start();

    const graph::VertexId n = store.snapshot()->numVertices();
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 40;

    // (op, source, target, epoch) -> value; shared verification map.
    using Key = std::tuple<int, graph::VertexId, graph::VertexId,
                           std::uint64_t>;
    std::mutex seen_mutex;
    std::map<Key, std::vector<std::uint64_t>> seen;
    std::atomic<int> violations{0};
    std::atomic<int> errors{0};
    std::atomic<int> answered{0};

    const auto clientBody = [&](int cid) {
        Client client(server);
        Rng rng(1000 + static_cast<std::uint64_t>(cid));
        std::uint64_t last_epoch = 0;
        for (int i = 0; i < kRequestsPerClient; ++i) {
            Request req;
            const int pick = static_cast<int>(rng.nextBelow(4));
            req.op = pick == 0   ? Op::kSsspDist
                     : pick == 1 ? Op::kBfsDist
                     : pick == 2 ? Op::kComponent
                                 : Op::kRankScore;
            // Few distinct sources: collisions across clients are the
            // point — the same key must reproduce per epoch.
            req.source = static_cast<graph::VertexId>(
                rng.nextBelow(8));
            req.target = static_cast<graph::VertexId>(
                rng.nextBelow(n));
            const Response resp = client.call(req);
            ++answered;
            if (resp.status != Status::kOk ||
                resp.values.size() != 1) {
                ++errors;
                continue;
            }
            // A client's sequential calls may never travel back in
            // time: snapshots only move forward.
            if (resp.epoch < last_epoch) {
                ++violations;
            }
            last_epoch = resp.epoch;
            const Key key{static_cast<int>(req.op), req.source,
                          req.op == Op::kComponent ||
                                  req.op == Op::kRankScore
                              ? 0
                              : req.target,
                          resp.epoch};
            const std::lock_guard<std::mutex> lock(seen_mutex);
            seen[key].push_back(resp.values[0]);
        }
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back(clientBody, c);
    }

    // The mutator: ingest through its own wire client (exercising the
    // server's ingest thread), letting auto-compaction trigger. It
    // paces on answered queries, not on the clock, so every build
    // (native, or sanitized with kernels slowed far more than ingests)
    // sees about kAnswersPerEpoch queries per epoch: enough same-epoch
    // repeats for the isolation check below to bite.
    constexpr int kAnswersPerEpoch = 8;
    std::atomic<bool> stop_ingest{false};
    std::thread mutator([&] {
        Client client(server);
        Rng rng(31337);
        int next = 0;
        while (!stop_ingest.load()) {
            if (answered.load() < next) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                continue;
            }
            next += kAnswersPerEpoch;
            Request req;
            req.op = Op::kIngest;
            req.edges = randomBatch(&rng, n, 8);
            const Response resp = client.call(req);
            if (resp.status != Status::kOk) {
                ++errors;
            }
        }
    });

    for (std::thread& t : clients) {
        t.join();
    }
    stop_ingest = true;
    mutator.join();
    server.stop();

    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(violations.load(), 0);
    // Snapshot isolation: per (query, epoch) exactly one answer.
    std::size_t multi = 0;
    for (const auto& [key, values] : seen) {
        for (const std::uint64_t v : values) {
            EXPECT_EQ(v, values.front())
                << "epoch " << std::get<3>(key) << " op "
                << std::get<0>(key);
        }
        if (values.size() > 1) {
            ++multi;
        }
    }
    // The few-sources pool guarantees actual cross-client collisions;
    // if nothing collided the assertion above was vacuous.
    EXPECT_GT(multi, 0u);
    EXPECT_GT(store.stats().epoch, 1u);
}

TEST(ServeSnapshot, IdenticalMissesRunOneKernel)
{
    // Single flight: eight clients raising the same miss at one pinned
    // epoch (nothing is ingested) share one kernel run and get one
    // answer, whichever of the two workers picks each request up.
    obs::TelemetrySession telemetry;
    GraphStore store(testGraph(), StoreConfig{});
    rt::NativeExecutor exec(2);
    Server server(store, exec);
    server.start();
    const graph::VertexId n = store.snapshot()->numVertices();

    Request sssp;
    sssp.op = Op::kSsspDist;
    sssp.source = 3;
    sssp.target = n - 1;
    Request comp;
    comp.op = Op::kComponent;
    comp.source = 5;
    constexpr int kClients = 8;
    for (const Request& req : {sssp, comp}) {
        SCOPED_TRACE(opName(req.op));
        std::latch go(kClients);
        std::vector<Response> answers(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                Client client(server);
                go.arrive_and_wait();
                answers[static_cast<std::size_t>(c)] = client.call(req);
            });
        }
        for (std::thread& t : clients) {
            t.join();
        }
        for (const Response& r : answers) {
            EXPECT_EQ(r.status, Status::kOk);
            EXPECT_EQ(r.epoch, 1u);
            EXPECT_EQ(r.values, answers.front().values);
        }
    }
    server.stop();

#if defined(CRONO_TELEMETRY_DISABLED)
    GTEST_SKIP() << "telemetry compiled out (CRONO_TELEMETRY=OFF)";
#endif
    int sssp_runs = 0;
    int comp_runs = 0;
    telemetry.recorder().forEachTrack(
        [&](obs::TrackKind kind, int tid, const obs::Track& t) {
            if (kind != obs::TrackKind::kHost || tid != 0) {
                return;
            }
            for (const obs::SpanEvent& ev : t.spans()) {
                if (ev.cat != obs::SpanCat::kKernel) {
                    continue;
                }
                sssp_runs += std::strcmp(ev.name, "SSSP_DIJK") == 0;
                comp_runs += std::strcmp(ev.name, "CONN_COMP") == 0;
            }
        });
    EXPECT_EQ(sssp_runs, 1);
    EXPECT_EQ(comp_runs, 1);
}

TEST(ServeSnapshot, ServerStopRejectsCleanly)
{
    // Queries racing a stop() must either complete kOk or come back
    // kRejected — never hang, never crash, never go uncounted.
    GraphStore store(testGraph(), StoreConfig{});
    rt::NativeExecutor exec(2);
    Server server(store, exec);
    server.start();

    std::atomic<int> finished{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&server, &finished, c] {
            Client client(server);
            Rng rng(static_cast<std::uint64_t>(c));
            for (int i = 0; i < 50; ++i) {
                Request req;
                req.op = Op::kSsspDist;
                req.source = static_cast<graph::VertexId>(
                    rng.nextBelow(64));
                req.target = static_cast<graph::VertexId>(
                    rng.nextBelow(64));
                const Response resp = client.call(req);
                if (resp.status != Status::kOk &&
                    resp.status != Status::kRejected) {
                    ADD_FAILURE() << statusName(resp.status);
                }
                ++finished;
            }
        });
    }
    // Stop mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop();
    for (std::thread& t : clients) {
        t.join();
    }
    EXPECT_EQ(finished.load(), 4 * 50);

    // Every request sent was answered by the server, before or after
    // the stop, and so is in the stats totals.
    obs::json::Value stats;
    ASSERT_TRUE(obs::json::parse(server.statsJson(), stats));
    EXPECT_EQ(stats.find("totals")->find("requests")->asU64(), 4u * 50);
}

} // namespace
} // namespace crono::serve
