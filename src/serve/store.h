/**
 * @file
 * GraphStore and its epoch snapshots: the single-writer, many-reader
 * owner of one served graph (DESIGN.md §17.2).
 *
 * Concurrency model:
 *  - Readers call snapshot() and get a shared_ptr<const Snapshot>;
 *    everything reachable from it is immutable, so a reader holds its
 *    epoch for as long as it likes with no further coordination.
 *  - Writers (the server's ingest thread, or a test calling
 *    ingestBatch directly) serialize on an internal mutex. An ingest
 *    validates the batch in the external id space, maps it through
 *    the current epoch's permutation, mirrors it if the graph is
 *    undirected, merges it into a copy of the current epoch's CSR
 *    (untouched row ranges copied as blocks, touched rows merged in
 *    (dst, weight) order), and publishes epoch+1 owning that CSR.
 *    Every epoch is therefore a plain, ready CSR: kernels never pay
 *    a merge on the query path.
 *  - Compaction runs on the same writer mutex: it re-runs the
 *    configured Reordering and blocked layout on the current epoch's
 *    CSR — the same reorderGraph call the constructor makes — and
 *    composes the new permutation onto the old one. The edge multiset
 *    is untouched, so compaction is semantically invisible: epoch E+1
 *    answers every query identically to E. ingestBatch never compacts
 *    by itself; the caller asks compactionDue() and calls compact(),
 *    because reorderGraph records on the host obs track the kernels
 *    write (QueryEngine compacts under its kernel mutex).
 */

#ifndef CRONO_SERVE_STORE_H_
#define CRONO_SERVE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "serve/protocol.h"

namespace crono::serve {

/** Store construction and compaction policy. */
struct StoreConfig {
    /**
     * Read by nothing. Kept only because the perfbench serve workload,
     * which changes only together with the benchmark, still sets it;
     * delete it at that change (ROADMAP item 6).
     */
    int num_shards = 1;
    /** Ordering applied at build and re-applied on every compaction. */
    graph::Reordering reordering = graph::Reordering::kNone;
    /** Attach the bin-major blocked pull layout at build/compaction. */
    bool blocked_layout = true;
    /** Compaction is due after this many batches since the last one. */
    std::uint32_t compact_batches = 16;
};

/**
 * One immutable graph version: the epoch's CSR in the internal
 * (post-reordering) id space, the permutation mapping it to the
 * external ids clients speak, and what was ingested since the last
 * compaction. All vertex ids in this interface are internal.
 */
class Snapshot {
  public:
    Snapshot(std::uint64_t epoch, graph::Graph graph,
             std::shared_ptr<const graph::VertexPermutation> perm,
             std::uint64_t delta_edges = 0, std::uint32_t delta_depth = 0);

    std::uint64_t epoch() const { return epoch_; }

    graph::VertexId numVertices() const { return graph_.numVertices(); }

    /** Directed edge slots of this version. */
    std::uint64_t numEdges() const { return graph_.numEdges(); }

    /** Directed edge slots ingested since the last compaction. */
    std::uint64_t deltaEdges() const { return deltaEdges_; }

    /** Batches ingested since the last compaction. */
    std::uint32_t deltaDepth() const { return deltaDepth_; }

    /** External-id <-> internal-id mapping of this version. */
    const graph::VertexPermutation& perm() const { return *perm_; }

    graph::VertexId
    toInternal(graph::VertexId external) const
    {
        return perm_->toNew(external);
    }

    graph::VertexId
    toExternal(graph::VertexId internal) const
    {
        return perm_->toOld(internal);
    }

    /**
     * This version's CSR: rows ascending by (dst, weight), parallel
     * edges kept. Only build and compaction epochs carry a blocked
     * layout.
     */
    const graph::Graph& materialized() const { return graph_; }

  private:
    std::uint64_t epoch_;
    graph::Graph graph_;
    std::shared_ptr<const graph::VertexPermutation> perm_;
    std::uint64_t deltaEdges_;
    std::uint32_t deltaDepth_;
};

/** Monotonic store counters (relaxed snapshots, test/report fodder). */
struct StoreStats {
    std::uint64_t epoch = 0;
    std::uint64_t batches_ingested = 0;
    std::uint64_t edges_ingested = 0; ///< accepted logical input edges
    std::uint64_t compactions = 0;
};

class GraphStore {
  public:
    /**
     * Build the first epoch from an external-space graph. The
     * external ids of @p external are the ids clients use forever,
     * across every reordering and compaction.
     */
    GraphStore(graph::Graph external, StoreConfig config);

    GraphStore(const GraphStore&) = delete;
    GraphStore& operator=(const GraphStore&) = delete;

    /** The current epoch's snapshot (immutable; pin as long as needed). */
    std::shared_ptr<const Snapshot> snapshot() const;

    /**
     * Apply one edge-update batch (external ids). Self loops are
     * dropped; an out-of-range endpoint rejects the whole batch with
     * kBadVertex and publishes nothing; an empty (or all-self-loop)
     * batch is kRejected. On kOk, @p epoch_out (if non-null) receives
     * the new epoch. Never compacts; see compactionDue().
     */
    Status ingestBatch(std::span<const graph::Edge> edges,
                       std::uint64_t* epoch_out = nullptr);

    /**
     * True once the slots or batches ingested since the last
     * compaction reach the compaction threshold.
     */
    bool compactionDue() const;

    /**
     * Re-run the reordering on the current epoch's CSR now. Publishes
     * a new epoch even when nothing was ingested (callers use that as
     * an epoch fence). @return the new epoch.
     */
    std::uint64_t compact();

    StoreStats stats() const;

    const StoreConfig& config() const { return config_; }

  private:
    /** Publish @p snap as the current epoch. */
    void publish(std::shared_ptr<const Snapshot> snap);

    StoreConfig config_;
    graph::VertexId numVertices_ = 0;
    bool undirected_ = true;

    mutable std::mutex snapMutex_;   ///< guards current_ only
    std::shared_ptr<const Snapshot> current_;

    std::mutex writeMutex_;          ///< serializes ingest/compaction

    /// Current permutation (written only under writeMutex_; shared
    /// into every Snapshot until the next compaction).
    std::shared_ptr<const graph::VertexPermutation> perm_;

    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> edges_{0};
    std::atomic<std::uint64_t> compactions_{0};
};

} // namespace crono::serve

#endif // CRONO_SERVE_STORE_H_
