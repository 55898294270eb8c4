/**
 * @file
 * QueryEngine: turns decoded requests into responses against one
 * GraphStore (DESIGN.md §17.3).
 *
 * Every read query pins a snapshot up front and computes exclusively
 * against it, so a response's epoch field is exact: the answer is a
 * pure function of that epoch's edge multiset. Point lookups ride on
 * full single-source results (an SSSP answers every future target
 * from the same source at that epoch), so the engine keeps a small
 * LRU of per-(epoch, class, source) kernel results; PageRank,
 * components and the top-k orders are per-epoch and shared by every
 * session.
 *
 * Kernel runs are serialized, in arrival order, on an internal mutex —
 * rt::NativeExecutor regions may not overlap — but cache hits bypass
 * it entirely: the common steady state (many clients, few distinct
 * sources, ingest every few seconds) answers most requests from
 * immutable cached arrays with no lock but the LRU's own. Every kernel
 * result goes through one helper, cached(), which looks the key up
 * again once it holds the kernel mutex: that is the single-flight
 * point, so identical misses at one epoch run one kernel however many
 * workers raise them together. Ingests run beside the kernels; only a
 * compaction (due after an ingest, or a kCompact) takes the kernel
 * mutex, because reorderGraph records on the host obs track the
 * kernels write.
 *
 * Determinism: BFS levels, SSSP distances and component labels are
 * deterministic outright; PageRank runs in gather mode (fixed CSR
 * summation order), so repeated queries at a pinned epoch are
 * bit-for-bit reproducible — the property serve_snapshot_test and the
 * serve differential oracle lean on. Component labels and top-k
 * orders are canonicalized to external ids (min-external-id
 * representative; score-then-id ordering) so answers are stable
 * across reorderings and compactions too.
 */

#ifndef CRONO_SERVE_QUERY_H_
#define CRONO_SERVE_QUERY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "runtime/executor.h"
#include "serve/protocol.h"
#include "serve/store.h"

namespace crono::serve {

/** Query-side tuning knobs. */
struct QueryConfig {
    /** Threads per kernel run (the executor's pool is shared). */
    int nthreads = 2;
    /** Exact PageRank iterations behind kRankScore / kTopRank. */
    unsigned pagerank_iterations = 20;
    /** PageRank damping (the paper's r). */
    double damping = 0.15;
    /** Cached kernel results across all classes (LRU). */
    std::size_t cache_capacity = 32;
};

class QueryEngine {
  public:
    QueryEngine(GraphStore& store, rt::NativeExecutor& exec,
                QueryConfig config = {});

    QueryEngine(const QueryEngine&) = delete;
    QueryEngine& operator=(const QueryEngine&) = delete;

    /**
     * Execute @p req and return its response. Read queries pin the
     * current snapshot; kIngest/kCompact go to the store; kStats
     * returns the installed provider's document (empty-stats fallback
     * without one).
     */
    Response execute(const Request& req);

    /**
     * Execute @p req against a caller-pinned snapshot instead of the
     * store's current one (tests use this to re-ask an old epoch).
     * Mutating ops fall through to execute().
     */
    Response executeOn(const Request& req,
                       const std::shared_ptr<const Snapshot>& snap);

    /** Install the kStats document source (the server's report). */
    void
    setStatsProvider(std::function<std::string()> fn)
    {
        statsFn_ = std::move(fn);
    }

    const QueryConfig& config() const { return config_; }

  private:
    /** Cached kernel-result classes (cache key namespace). */
    enum class Kind : std::uint8_t {
        kSssp = 0,
        kBfs,
        kComponents,
        kRank,
        kDegreeOrder,
        kRankOrder,
    };

    /** Component labels plus their external-id canonicalization. */
    struct Components {
        /** Internal representative per internal vertex. */
        AlignedVector<graph::VertexId> label;
        /** Min external id in the component of internal vertex v. */
        AlignedVector<graph::VertexId> canon;
    };

    /** One (score, external id) per vertex, best first. */
    using TopOrder = std::vector<std::pair<std::uint64_t,
                                           graph::VertexId>>;

    /** LRU lookup; nullptr on miss. */
    std::shared_ptr<const void> cacheGet(std::uint64_t epoch, Kind kind,
                                         graph::VertexId source);

    /** LRU insert (evicts the coldest entry past capacity). */
    void cachePut(std::uint64_t epoch, Kind kind, graph::VertexId source,
                  std::shared_ptr<const void> data);

    /**
     * The (epoch, @p kind, @p source) result, running @p compute (a
     * kernel returning T) under the kernel mutex on a miss. The
     * single-flight point: the key is looked up again under the
     * mutex, so concurrent identical misses run @p compute once.
     */
    template <class T, class F>
    std::shared_ptr<const T> cached(const Snapshot& snap, Kind kind,
                                    graph::VertexId source, F&& compute);

    std::shared_ptr<const AlignedVector<graph::Dist>>
    ssspDists(const Snapshot& snap, graph::VertexId internal_source);

    std::shared_ptr<const AlignedVector<std::uint32_t>>
    bfsLevels(const Snapshot& snap, graph::VertexId internal_source);

    std::shared_ptr<const Components> components(const Snapshot& snap);

    std::shared_ptr<const AlignedVector<double>>
    ranks(const Snapshot& snap);

    std::shared_ptr<const TopOrder> degreeOrder(const Snapshot& snap);

    std::shared_ptr<const TopOrder> rankOrder(const Snapshot& snap);

    GraphStore& store_;
    rt::NativeExecutor& exec_;
    QueryConfig config_;
    std::function<std::string()> statsFn_;

    /**
     * A mutex granted in arrival order. With a std::mutex the worker
     * that just released it can take it straight back while the
     * other worker's older request waits out another whole kernel,
     * which stretches the latency tail (perfbench serve-churn
     * sssp_tail_ms).
     */
    class FifoMutex {
      public:
        void lock();
        void unlock();

      private:
        std::mutex mutex_;
        std::condition_variable cv_;
        std::uint64_t next_ = 0;    ///< next ticket handed out
        std::uint64_t serving_ = 0; ///< ticket allowed to hold it
    };

    /// Executor regions may not overlap; compaction shares the host
    /// obs track, so it holds this too.
    FifoMutex kernelMutex_;

    struct CacheEntry {
        std::uint64_t epoch;
        Kind kind;
        graph::VertexId source;
        std::shared_ptr<const void> data;
    };
    std::mutex cacheMutex_;
    std::list<CacheEntry> cache_; ///< front = hottest
};

} // namespace crono::serve

#endif // CRONO_SERVE_QUERY_H_
