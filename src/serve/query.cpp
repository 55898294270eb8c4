/**
 * @file
 * QueryEngine implementation: snapshot pinning, result caching, and
 * the per-opcode answer assembly.
 */

#include "serve/query.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/macros.h"
#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/pagerank.h"
#include "core/sssp.h"

namespace crono::serve {

QueryEngine::QueryEngine(GraphStore& store, rt::NativeExecutor& exec,
                         QueryConfig config)
    : store_(store), exec_(exec), config_(config)
{
    CRONO_REQUIRE(config_.nthreads >= 1, "query engine needs threads");
    CRONO_REQUIRE(config_.cache_capacity >= 1, "cache capacity >= 1");
}

void
QueryEngine::FifoMutex::lock()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t ticket = next_++;
    cv_.wait(lock, [&] { return serving_ == ticket; });
}

void
QueryEngine::FifoMutex::unlock()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++serving_;
    }
    cv_.notify_all();
}

std::shared_ptr<const void>
QueryEngine::cacheGet(std::uint64_t epoch, Kind kind,
                      graph::VertexId source)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->epoch == epoch && it->kind == kind &&
            it->source == source) {
            cache_.splice(cache_.begin(), cache_, it);
            return cache_.front().data;
        }
    }
    return nullptr;
}

void
QueryEngine::cachePut(std::uint64_t epoch, Kind kind,
                      graph::VertexId source,
                      std::shared_ptr<const void> data)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    cache_.push_front(CacheEntry{epoch, kind, source, std::move(data)});
    while (cache_.size() > config_.cache_capacity) {
        cache_.pop_back();
    }
}

template <class T, class F>
std::shared_ptr<const T>
QueryEngine::cached(const Snapshot& snap, Kind kind,
                    graph::VertexId source, F&& compute)
{
    if (auto hit = cacheGet(snap.epoch(), kind, source)) {
        return std::static_pointer_cast<const T>(hit);
    }
    // The single-flight point: identical misses queue on the kernel
    // mutex, and all but the first find the first one's result here.
    std::lock_guard<FifoMutex> lock(kernelMutex_);
    if (auto hit = cacheGet(snap.epoch(), kind, source)) {
        return std::static_pointer_cast<const T>(hit);
    }
    auto out = std::make_shared<const T>(compute());
    cachePut(snap.epoch(), kind, source, out);
    return out;
}

std::shared_ptr<const AlignedVector<graph::Dist>>
QueryEngine::ssspDists(const Snapshot& snap,
                       graph::VertexId internal_source)
{
    return cached<AlignedVector<graph::Dist>>(
        snap, Kind::kSssp, internal_source, [&] {
            return core::sssp(exec_, config_.nthreads,
                              snap.materialized(), internal_source)
                .dist;
        });
}

std::shared_ptr<const AlignedVector<std::uint32_t>>
QueryEngine::bfsLevels(const Snapshot& snap,
                       graph::VertexId internal_source)
{
    return cached<AlignedVector<std::uint32_t>>(
        snap, Kind::kBfs, internal_source, [&] {
            return core::bfs(exec_, config_.nthreads,
                             snap.materialized(), internal_source)
                .level;
        });
}

std::shared_ptr<const QueryEngine::Components>
QueryEngine::components(const Snapshot& snap)
{
    return cached<Components>(snap, Kind::kComponents, 0, [&] {
        Components comp;
        comp.label = core::connectedComponents(exec_, config_.nthreads,
                                               snap.materialized())
                         .label;
        // Canonicalize to the minimum external id per component so
        // the answer is independent of the reordering of this epoch.
        const graph::VertexId n = snap.numVertices();
        AlignedVector<graph::VertexId> min_ext(n, graph::kNoVertex);
        for (graph::VertexId v = 0; v < n; ++v) {
            const graph::VertexId rep = comp.label[v];
            min_ext[rep] = std::min(min_ext[rep], snap.toExternal(v));
        }
        comp.canon.resize(n);
        for (graph::VertexId v = 0; v < n; ++v) {
            comp.canon[v] = min_ext[comp.label[v]];
        }
        return comp;
    });
}

std::shared_ptr<const AlignedVector<double>>
QueryEngine::ranks(const Snapshot& snap)
{
    // Gather mode: deterministic summation order, so a pinned epoch
    // answers rank queries bit-for-bit reproducibly.
    return cached<AlignedVector<double>>(snap, Kind::kRank, 0, [&] {
        return core::pageRank(exec_, config_.nthreads,
                              snap.materialized(),
                              config_.pagerank_iterations,
                              config_.damping, nullptr,
                              core::PageRankMode::kGather)
            .rank;
    });
}

namespace {

using ScoredVertex = std::pair<std::uint64_t, graph::VertexId>;

/**
 * The kMaxTopK best (score(v), external id) pairs of @p snap, higher
 * score first and smaller external id on ties.
 */
template <class Score>
std::vector<ScoredVertex>
bestFirst(const Snapshot& snap, Score&& score)
{
    const graph::VertexId n = snap.numVertices();
    std::vector<ScoredVertex> order;
    order.reserve(n);
    for (graph::VertexId v = 0; v < n; ++v) {
        order.emplace_back(score(v), snap.toExternal(v));
    }
    const std::size_t keep = std::min<std::size_t>(n, kMaxTopK);
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(keep),
                      order.end(),
                      [](const ScoredVertex& a, const ScoredVertex& b) {
                          return a.first != b.first ? a.first > b.first
                                                    : a.second < b.second;
                      });
    order.resize(keep);
    return order;
}

} // namespace

// The top-k orders stay outside the kernel mutex: they run no kernel
// of their own (rankOrder's PageRank goes through ranks()).
std::shared_ptr<const QueryEngine::TopOrder>
QueryEngine::degreeOrder(const Snapshot& snap)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kDegreeOrder, 0)) {
        return std::static_pointer_cast<const TopOrder>(hit);
    }
    auto out = std::make_shared<const TopOrder>(
        bestFirst(snap, [&](graph::VertexId v) {
            return snap.materialized().degree(v);
        }));
    cachePut(snap.epoch(), Kind::kDegreeOrder, 0, out);
    return out;
}

std::shared_ptr<const QueryEngine::TopOrder>
QueryEngine::rankOrder(const Snapshot& snap)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kRankOrder, 0)) {
        return std::static_pointer_cast<const TopOrder>(hit);
    }
    const std::shared_ptr<const AlignedVector<double>> rank =
        ranks(snap);
    // IEEE-754 bit pattern: ranks are non-negative, and for
    // non-negative doubles the bit order is the value order, so the
    // u64 comparator sorts by score exactly.
    auto out = std::make_shared<const TopOrder>(
        bestFirst(snap, [&](graph::VertexId v) {
            return std::bit_cast<std::uint64_t>((*rank)[v]);
        }));
    cachePut(snap.epoch(), Kind::kRankOrder, 0, out);
    return out;
}

Response
QueryEngine::execute(const Request& req)
{
    switch (req.op) {
      case Op::kIngest: {
        // The merge runs beside the kernels; a due compaction takes
        // the kernel mutex (see the file header).
        std::uint64_t epoch = 0;
        const Status s = store_.ingestBatch(req.edges, &epoch);
        if (s == Status::kOk && store_.compactionDue()) {
            std::lock_guard<FifoMutex> lock(kernelMutex_);
            store_.compact();
        }
        Response r = errorResponse(req.id, s, epoch);
        if (s == Status::kOk) {
            r.values.push_back(req.edges.size());
        } else {
            r.epoch = store_.snapshot()->epoch();
        }
        return r;
      }
      case Op::kCompact: {
        std::lock_guard<FifoMutex> lock(kernelMutex_);
        Response r;
        r.id = req.id;
        r.epoch = store_.compact();
        return r;
      }
      case Op::kStats: {
        Response r;
        r.id = req.id;
        r.epoch = store_.snapshot()->epoch();
        r.text = statsFn_ ? statsFn_() : std::string("{}");
        return r;
      }
      default:
        return executeOn(req, store_.snapshot());
    }
}

Response
QueryEngine::executeOn(const Request& req,
                       const std::shared_ptr<const Snapshot>& snap)
{
    if (req.op == Op::kIngest || req.op == Op::kCompact ||
        req.op == Op::kStats) {
        return execute(req); // mutating/global ops ignore the pin
    }

    Response r;
    r.id = req.id;
    r.epoch = snap->epoch();
    const graph::VertexId n = snap->numVertices();

    switch (req.op) {
      case Op::kPing:
        break;
      case Op::kBfsDist: {
        if (req.source >= n || req.target >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto levels = bfsLevels(*snap, snap->toInternal(req.source));
        const std::uint32_t lvl = (*levels)[snap->toInternal(req.target)];
        r.values.push_back(lvl == core::kNoLevel ? kNoValue : lvl);
        break;
      }
      case Op::kSsspDist: {
        if (req.source >= n || req.target >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto dist = ssspDists(*snap, snap->toInternal(req.source));
        const graph::Dist d = (*dist)[snap->toInternal(req.target)];
        r.values.push_back(d == graph::kInfDist ? kNoValue : d);
        break;
      }
      case Op::kSsspBatch: {
        if (req.source >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        for (const graph::VertexId t : req.targets) {
            if (t >= n) {
                return errorResponse(req.id, Status::kBadVertex,
                                     r.epoch);
            }
        }
        const auto dist = ssspDists(*snap, snap->toInternal(req.source));
        r.values.reserve(req.targets.size());
        for (const graph::VertexId t : req.targets) {
            const graph::Dist d = (*dist)[snap->toInternal(t)];
            r.values.push_back(d == graph::kInfDist ? kNoValue : d);
        }
        break;
      }
      case Op::kComponent: {
        if (req.source >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto comp = components(*snap);
        r.values.push_back(comp->canon[snap->toInternal(req.source)]);
        break;
      }
      case Op::kRankScore: {
        if (req.source >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto rank = ranks(*snap);
        r.values.push_back(std::bit_cast<std::uint64_t>(
            (*rank)[snap->toInternal(req.source)]));
        break;
      }
      case Op::kTopDegree: {
        if (req.k == 0) {
            return errorResponse(req.id, Status::kRejected, r.epoch);
        }
        const auto order = degreeOrder(*snap);
        const std::size_t k =
            std::min<std::size_t>(req.k, order->size());
        for (std::size_t i = 0; i < k; ++i) {
            r.values.push_back((*order)[i].first);
            r.vertices.push_back((*order)[i].second);
        }
        break;
      }
      case Op::kTopRank: {
        if (req.k == 0) {
            return errorResponse(req.id, Status::kRejected, r.epoch);
        }
        const auto order = rankOrder(*snap);
        const std::size_t k =
            std::min<std::size_t>(req.k, order->size());
        for (std::size_t i = 0; i < k; ++i) {
            r.values.push_back((*order)[i].first);
            r.vertices.push_back((*order)[i].second);
        }
        break;
      }
      case Op::kIngest:
      case Op::kCompact:
      case Op::kStats:
        break; // handled above
    }
    return r;
}

} // namespace crono::serve
