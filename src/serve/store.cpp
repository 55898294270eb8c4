/**
 * @file
 * GraphStore: epoch publication, ingest validation/mirroring, the
 * merge of each batch into a fresh CSR, and compaction as a re-run of
 * the PR-5 reordering.
 */

#include "serve/store.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace crono::serve {

namespace {

/** Compaction is also due once this many slots were ingested. */
constexpr std::uint64_t kCompactDeltaEdges = 1u << 16;

/**
 * @p g plus the directed edge slots of @p batch. Row ranges the batch
 * does not touch are copied as blocks; each touched row is merged with
 * its new slots in (dst, weight) order, the order every builder and
 * permuteGraph row already has, so the result equals a keepAll build
 * of the same edge multiset.
 */
graph::Graph
mergeBatch(const graph::Graph& g, std::vector<graph::Edge> batch)
{
    std::sort(batch.begin(), batch.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                  return std::tie(a.src, a.dst, a.weight) <
                         std::tie(b.src, b.dst, b.weight);
              });
    const graph::VertexId n = g.numVertices();
    const AlignedVector<graph::EdgeId>& off = g.rawOffsets();
    const AlignedVector<graph::VertexId>& nbr = g.rawNeighbors();
    const AlignedVector<graph::Weight>& wt = g.rawWeights();
    AlignedVector<graph::EdgeId> offsets(n + 1);
    AlignedVector<graph::VertexId> neighbors(nbr.size() + batch.size());
    AlignedVector<graph::Weight> weights(neighbors.size());

    // Rows [from, to) are copied whole, `shift` slots further on.
    graph::VertexId from = 0;
    graph::EdgeId shift = 0;
    const auto copyRows = [&](graph::VertexId to) {
        for (graph::VertexId v = from; v <= to; ++v) {
            offsets[v] = off[v] + shift;
        }
        std::copy(nbr.begin() + off[from], nbr.begin() + off[to],
                  neighbors.begin() + offsets[from]);
        std::copy(wt.begin() + off[from], wt.begin() + off[to],
                  weights.begin() + offsets[from]);
    };
    for (std::size_t i = 0; i < batch.size();) {
        const graph::VertexId v = batch[i].src;
        copyRows(v);
        graph::EdgeId old = off[v];
        graph::EdgeId at = offsets[v];
        const auto keepOld = [&] {
            neighbors[at] = nbr[old];
            weights[at++] = wt[old++];
        };
        for (; i < batch.size() && batch[i].src == v; ++i) {
            const graph::Edge& e = batch[i];
            while (old < off[v + 1] &&
                   std::tie(nbr[old], wt[old]) <= std::tie(e.dst, e.weight)) {
                keepOld();
            }
            neighbors[at] = e.dst;
            weights[at++] = e.weight;
            ++shift;
        }
        while (old < off[v + 1]) {
            keepOld();
        }
        from = v + 1;
    }
    copyRows(n);
    return graph::Graph(std::move(offsets), std::move(neighbors),
                        std::move(weights), g.undirected());
}

} // namespace

Snapshot::Snapshot(std::uint64_t epoch, graph::Graph graph,
                   std::shared_ptr<const graph::VertexPermutation> perm,
                   std::uint64_t delta_edges, std::uint32_t delta_depth)
    : epoch_(epoch), graph_(std::move(graph)), perm_(std::move(perm)),
      deltaEdges_(delta_edges), deltaDepth_(delta_depth)
{
    CRONO_REQUIRE(perm_ != nullptr, "snapshot needs a permutation");
    CRONO_REQUIRE(perm_->size() == graph_.numVertices(),
                  "permutation does not cover the graph");
}

GraphStore::GraphStore(graph::Graph external, StoreConfig config)
    : config_(config)
{
    numVertices_ = external.numVertices();
    undirected_ = external.undirected();
    graph::ReorderedGraph rg = graph::reorderGraph(
        external, config_.reordering, config_.blocked_layout);
    perm_ = std::make_shared<const graph::VertexPermutation>(
        std::move(rg.perm));
    publish(std::make_shared<const Snapshot>(1, std::move(rg.graph),
                                             perm_));
}

std::shared_ptr<const Snapshot>
GraphStore::snapshot() const
{
    std::lock_guard<std::mutex> lock(snapMutex_);
    return current_;
}

void
GraphStore::publish(std::shared_ptr<const Snapshot> snap)
{
    std::lock_guard<std::mutex> lock(snapMutex_);
    current_ = std::move(snap);
}

Status
GraphStore::ingestBatch(std::span<const graph::Edge> edges,
                        std::uint64_t* epoch_out)
{
    std::lock_guard<std::mutex> lock(writeMutex_);

    // Validate the whole batch in external space before touching
    // anything: an ingest is atomic — all of it lands or none does.
    std::uint64_t accepted = 0;
    for (const graph::Edge& e : edges) {
        if (e.src >= numVertices_ || e.dst >= numVertices_) {
            return Status::kBadVertex;
        }
        if (e.src != e.dst) {
            ++accepted;
        }
    }
    if (accepted == 0) {
        return Status::kRejected;
    }

    const std::shared_ptr<const Snapshot> cur = snapshot();

    // Map into the current internal id space, mirroring as the CSR
    // does so the new slots compose with its rows seamlessly.
    std::vector<graph::Edge> internal;
    internal.reserve(static_cast<std::size_t>(accepted) *
                     (undirected_ ? 2 : 1));
    for (const graph::Edge& e : edges) {
        if (e.src == e.dst) {
            continue;
        }
        const graph::VertexId s = cur->toInternal(e.src);
        const graph::VertexId d = cur->toInternal(e.dst);
        internal.push_back({s, d, e.weight});
        if (undirected_) {
            internal.push_back({d, s, e.weight});
        }
    }

    const std::uint64_t slots = internal.size();
    const std::uint64_t epoch = cur->epoch() + 1;
    publish(std::make_shared<const Snapshot>(
        epoch, mergeBatch(cur->materialized(), std::move(internal)),
        perm_, cur->deltaEdges() + slots, cur->deltaDepth() + 1));
    batches_.fetch_add(1, std::memory_order_relaxed);
    edges_.fetch_add(accepted, std::memory_order_relaxed);
    if (epoch_out != nullptr) {
        *epoch_out = epoch;
    }
    return Status::kOk;
}

bool
GraphStore::compactionDue() const
{
    const std::shared_ptr<const Snapshot> cur = snapshot();
    return cur->deltaEdges() >= kCompactDeltaEdges ||
           cur->deltaDepth() >= config_.compact_batches;
}

std::uint64_t
GraphStore::compact()
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    const std::shared_ptr<const Snapshot> cur = snapshot();
    graph::ReorderedGraph rg = graph::reorderGraph(
        cur->materialized(), config_.reordering, config_.blocked_layout);
    perm_ = std::make_shared<const graph::VertexPermutation>(
        cur->perm().composedWith(rg.perm));
    const std::uint64_t epoch = cur->epoch() + 1;
    publish(std::make_shared<const Snapshot>(epoch, std::move(rg.graph),
                                             perm_));
    compactions_.fetch_add(1, std::memory_order_relaxed);
    return epoch;
}

StoreStats
GraphStore::stats() const
{
    StoreStats s;
    s.epoch = snapshot()->epoch();
    s.batches_ingested = batches_.load(std::memory_order_relaxed);
    s.edges_ingested = edges_.load(std::memory_order_relaxed);
    s.compactions = compactions_.load(std::memory_order_relaxed);
    return s;
}

} // namespace crono::serve
