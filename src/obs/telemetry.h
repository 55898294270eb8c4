/**
 * @file
 * Core of the observability layer: scoped spans and named counters
 * recorded into per-track single-writer ring buffers behind a
 * runtime-nullable global sink.
 *
 * Design constraints (this is a *measurement substrate* — it must not
 * perturb what it measures):
 *
 *  - Compile-time gate: configuring with -DCRONO_TELEMETRY=OFF defines
 *    CRONO_TELEMETRY_DISABLED, which turns sink() into a constexpr
 *    nullptr so every `if (auto* r = obs::sink())` hook folds away to
 *    nothing. The Recorder/exporter types stay defined either way so
 *    call sites compile identically.
 *  - Runtime-nullable sink: with telemetry compiled in but no
 *    TelemetrySession installed (the paper-figure benches), a hook
 *    costs one relaxed atomic load and a predictable branch.
 *  - Lock-free recording: each (kind, tid) track is written by exactly
 *    one thread (on the simulator, all fibers share the host thread),
 *    so appends are plain stores into a private ring — no locks, no
 *    shared cache lines between recording threads. The only lock is a
 *    creation-time mutex taken once per track.
 *  - Clock domains: native tracks carry steady-clock nanoseconds,
 *    simulator tracks carry simulated cycles. Exporters normalize per
 *    domain; recording never converts.
 *  - On the simulator, hooks use only ctx.tid()/ctx.timestamp(), never
 *    ctx.read()/write(), so telemetry adds zero modeled memory traffic
 *    and zero simulated cycles — simulated statistics are bit-for-bit
 *    identical with telemetry on or off.
 */

#ifndef CRONO_OBS_TELEMETRY_H_
#define CRONO_OBS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/perf/sampler.h"

namespace crono::obs {

// ---------------------------------------------------------------- spans

/** Span categories (the "cat" field of exported trace events). */
enum class SpanCat : std::uint8_t {
    kKernel = 0,   ///< a whole parallel region / kernel driver
    kRound,        ///< one frontier round / PageRank phase
    kBarrierWait,  ///< blocked in a barrier or lock
    kSteal,        ///< draining another thread's chunk queue
    kSimEpoch,     ///< simulated-thread / sim-core lifetime
};

inline constexpr int kNumSpanCats = 5;

/** Printable category name, e.g. "barrier-wait". */
const char* spanCatName(SpanCat cat);

/**
 * One closed span. @p name must be a string literal (or otherwise
 * outlive the Recorder); spans are stored by pointer, never copied.
 */
struct SpanEvent {
    std::uint64_t begin = 0;    ///< track clock domain (ns or cycles)
    std::uint64_t end = 0;
    const char* name = nullptr;
    std::uint64_t arg = 0;      ///< payload (front size, chunks, ops)
    SpanCat cat = SpanCat::kKernel;
};

// -------------------------------------------------------------- counters

/** Named monotonic counters, one fixed slot per track. */
enum class Counter : std::uint8_t {
    kRelaxations = 0,  ///< successful distance/label improvements
    kExpansions,       ///< front vertices expanded (edge scans)
    kDeferrals,        ///< SSSP pacing re-queues
    kActivations,      ///< vertices pushed onto a next front
    kDenseRounds,      ///< rounds consumed via the dense bitmap
    kSparseRounds,     ///< rounds consumed via the work lists
    kModeSwitches,     ///< dense<->sparse flips (kAdaptive)
    kStealAttempts,    ///< probes of a non-empty victim queue
    kStealChunks,      ///< chunks actually stolen
    kBarrierWaits,     ///< barrier episodes entered
    kIterations,       ///< fixed-iteration kernels (PageRank)
    kBusyCycles,       ///< sim: compute component cycles
    kStallCycles,      ///< sim: non-compute (memory + sync) cycles
    kPullRounds,       ///< rounds consumed pull-side (direction opt.)
    kCaptures,         ///< work items claimed via vertex capture
    kDonations,        ///< branches donated to a shared stack
    kMoves,            ///< community-detection vertex moves
    kTriangles,        ///< triangles enumerated (each exactly once)
    kBranches,         ///< B&B (TSP/MCS) search-tree nodes visited
    kReorderMs,        ///< milliseconds spent reordering a graph
    kBlockFills,       ///< (bin, destination) entries in blocked layouts
    kBucketSteps,      ///< delta-stepping light-bucket phases executed
    kStaleSkips,       ///< delta-stepping bucket entries superseded
    kHeavyRelaxations, ///< delta-stepping heavy-edge relaxations tried
    kLoadMs,           ///< milliseconds spent parsing a graph file
    kBidomainSplits,   ///< MCS bidomain classes split during expansion
    kServeRequests,    ///< serve: requests answered (any status)
    kServeBatches,     ///< serve: worker snapshot pins (one per request)
    kServeIngestEdges, ///< serve: logical edges accepted by ingest
    kServeCompactions, ///< serve: delta compactions folded
};

inline constexpr int kNumCounters = 30;

/** Printable counter name, e.g. "steal_chunks". */
const char* counterName(Counter c);

// --------------------------------------------------------------- tracks

/**
 * Track identity: which timeline an event belongs to. Exporters map
 * each kind to one "process" in the Chrome trace so the clock domains
 * never share an axis.
 */
enum class TrackKind : std::uint8_t {
    kHost = 0,      ///< driver thread (native ns)
    kWorker,        ///< NativeExecutor workers (native ns)
    kSimThread,     ///< simulated software threads (cycles)
    kSimCore,       ///< simulated physical cores (cycles)
};

inline constexpr int kNumTrackKinds = 4;

/** Printable kind name, e.g. "sim-core". */
const char* trackKindName(TrackKind kind);

/**
 * One timeline: a bounded single-writer span ring plus counter slots.
 * When the ring is full the oldest spans are overwritten (dropped()
 * reports how many); counters never saturate.
 */
class Track {
  public:
    /** @param capacity span slots; rounded up to a power of two. */
    explicit Track(std::size_t capacity);

    /** Append one closed span (single writer, wait-free). */
    void
    record(const SpanEvent& ev)
    {
        ring_[static_cast<std::size_t>(count_) & mask_] = ev;
        ++count_;
    }

    /** Bump counter @p c by @p n (single writer). */
    void
    add(Counter c, std::uint64_t n)
    {
        counters_[static_cast<int>(c)] += n;
    }

    /** Spans still in the ring, oldest first (reader side, post-run). */
    std::vector<SpanEvent> spans() const;

    /** Spans overwritten because the ring was full. */
    std::uint64_t
    dropped() const
    {
        const std::uint64_t cap = mask_ + 1;
        return count_ > cap ? count_ - cap : 0;
    }

    /** Total spans ever recorded. */
    std::uint64_t recorded() const { return count_; }

    std::uint64_t
    counter(Counter c) const
    {
        return counters_[static_cast<int>(c)];
    }

    // Live-span tracking: the innermost *open* scoped span's name,
    // maintained by ScopedSpan/ScopedHostSpan (single writer, like
    // the ring). Lets the analysis layer attribute an event raised
    // mid-span — e.g. a detected race — to the kernel or span it
    // occurred in, which the closed-span ring cannot answer until
    // after the fact.

    /** Innermost open scoped span's name (nullptr outside any). */
    const char* liveName() const { return live_; }

    /** Open a scoped span; returns the prior name for popLive. */
    const char*
    pushLive(const char* name)
    {
        const char* prior = live_;
        live_ = name;
        return prior;
    }

    /** Close the innermost span, restoring pushLive's return value. */
    void popLive(const char* prior) { live_ = prior; }

  private:
    std::vector<SpanEvent> ring_;
    std::uint64_t mask_;
    std::uint64_t count_ = 0;
    const char* live_ = nullptr;
    std::array<std::uint64_t, kNumCounters> counters_{};
};

// ------------------------------------------------------------- recorder

/**
 * Owns every track of one telemetry session. Track lookup is a
 * lock-free double-checked load; creation (first use of a (kind, tid)
 * pair) takes a mutex once.
 */
class Recorder {
  public:
    /** Tracks per kind; tids at or above this record nothing. */
    static constexpr int kMaxTracksPerKind = 512;

    /** @param spans_per_track ring capacity of each track. */
    explicit Recorder(std::size_t spans_per_track = 8192);

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /**
     * The (kind, tid) track, created on first use. Returns nullptr
     * for out-of-range tids so hot paths can skip silently.
     */
    Track*
    track(TrackKind kind, int tid)
    {
        if (tid < 0 || tid >= kMaxTracksPerKind) {
            return nullptr;
        }
        auto& slot = slots_[static_cast<int>(kind)]
                           [static_cast<std::size_t>(tid)];
        Track* t = slot.load(std::memory_order_acquire);
        return t != nullptr ? t : createTrack(kind, tid);
    }

    /** Read-only view of an existing track (nullptr if never used). */
    const Track*
    peek(TrackKind kind, int tid) const
    {
        if (tid < 0 || tid >= kMaxTracksPerKind) {
            return nullptr;
        }
        return slots_[static_cast<int>(kind)]
                     [static_cast<std::size_t>(tid)]
            .load(std::memory_order_acquire);
    }

    /** Invoke fn(kind, tid, track) for every created track. */
    template <class Fn>
    void
    forEachTrack(Fn&& fn) const
    {
        for (int k = 0; k < kNumTrackKinds; ++k) {
            for (int tid = 0; tid < kMaxTracksPerKind; ++tid) {
                const Track* t = slots_[k][static_cast<std::size_t>(tid)]
                                     .load(std::memory_order_acquire);
                if (t != nullptr) {
                    fn(static_cast<TrackKind>(k), tid, *t);
                }
            }
        }
    }

    /** Counter @p c summed over every track. */
    std::uint64_t totalCounter(Counter c) const;

    /** Spans dropped summed over every track. */
    std::uint64_t totalDropped() const;

  private:
    Track* createTrack(TrackKind kind, int tid);

    using Slots = std::array<std::atomic<Track*>,
                             static_cast<std::size_t>(kMaxTracksPerKind)>;
    std::array<Slots, kNumTrackKinds> slots_{};
    std::deque<std::unique_ptr<Track>> owned_;
    std::mutex createMutex_;
    std::size_t spansPerTrack_;
};

// ------------------------------------------------ global nullable sink

#if defined(CRONO_TELEMETRY_DISABLED)

/** Telemetry compiled out: hooks fold to nothing. */
constexpr Recorder* sink() { return nullptr; }
inline void setSink(Recorder*) {}

#else

namespace detail {
extern std::atomic<Recorder*> g_sink;
} // namespace detail

/** The installed recorder, or nullptr when telemetry is idle. */
inline Recorder*
sink()
{
    return detail::g_sink.load(std::memory_order_acquire);
}

/** Install (or, with nullptr, remove) the global recorder. */
void setSink(Recorder* recorder);

#endif // CRONO_TELEMETRY_DISABLED

/**
 * RAII telemetry session: owns a Recorder and installs it as the
 * global sink for its lifetime. Sessions must not nest.
 */
class TelemetrySession {
  public:
    explicit TelemetrySession(std::size_t spans_per_track = 8192)
        : recorder_(spans_per_track)
    {
        setSink(&recorder_);
    }

    ~TelemetrySession() { setSink(nullptr); }

    TelemetrySession(const TelemetrySession&) = delete;
    TelemetrySession& operator=(const TelemetrySession&) = delete;

    Recorder& recorder() { return recorder_; }
    const Recorder& recorder() const { return recorder_; }

  private:
    Recorder recorder_;
};

// ------------------------------------------------------ record helpers

/** Steady-clock nanoseconds (the native tracks' clock domain). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Track kind for events recorded by an ExecutionContext: simulated
 * contexts (SimCtx) land on kSimThread tracks, native ones on
 * kWorker. Requires Ctx::kSimulated (part of the context concept).
 */
template <class Ctx>
inline constexpr TrackKind ctxTrackKind =
    Ctx::kSimulated ? TrackKind::kSimThread : TrackKind::kWorker;

// Null-safe hook primitives. Call sites use these instead of member
// calls so the CRONO_TELEMETRY_DISABLED build contains no (dead)
// member call on a folded-null pointer — gcc's -Wnonnull flags those
// even in provably unreachable branches.

/** The (kind, tid) track of @p r, or nullptr when idle/disabled. */
inline Track*
trackFor(Recorder* r, TrackKind kind, int tid)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    (void)r;
    (void)kind;
    (void)tid;
    return nullptr;
#else
    return r != nullptr ? r->track(kind, tid) : nullptr;
#endif
}

/** Append @p ev to @p t if it exists. */
inline void
spanRecord(Track* t, const SpanEvent& ev)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    (void)t;
    (void)ev;
#else
    if (t != nullptr) {
        t->record(ev);
    }
#endif
}

/** Bump counter @p c on @p t if it exists. */
inline void
counterBump(Track* t, Counter c, std::uint64_t n)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    (void)t;
    (void)c;
    (void)n;
#else
    if (t != nullptr) {
        t->add(c, n);
    }
#endif
}

/** Bump a counter on the calling context's track (no-op when idle). */
template <class Ctx>
inline void
counterAdd(Ctx& ctx, Counter c, std::uint64_t n)
{
    if (n == 0) {
        return;
    }
    counterBump(trackFor(sink(), ctxTrackKind<Ctx>, ctx.tid()), c, n);
}

/**
 * RAII span on the calling context's track, in the context's clock
 * domain. Does nothing (and reads no clock) when the sink is idle.
 *
 * On native contexts, an active perf::ProfileSession additionally
 * brackets the span with hardware-counter samples so the span name
 * accumulates per-thread counter deltas (simulated contexts never
 * sample — host counters are meaningless for the model).
 */
template <class Ctx>
class ScopedSpan {
  public:
    ScopedSpan(Ctx& ctx, SpanCat cat, const char* name,
               std::uint64_t arg = 0)
    {
        track_ = trackFor(sink(), ctxTrackKind<Ctx>, ctx.tid());
        if (track_ != nullptr) {
            ctx_ = &ctx;
            ev_ = {ctx.timestamp(), 0, name, arg, cat};
            prior_ = track_->pushLive(name);
            if constexpr (!Ctx::kSimulated) {
                hwSlot_ = perf::slotForTid(ctx.tid());
                hwToken_ = perf::spanBegin(hwSlot_);
            }
        }
    }

    ~ScopedSpan()
    {
        if (track_ != nullptr) {
            track_->popLive(prior_);
            ev_.end = ctx_->timestamp();
            spanRecord(track_, ev_);
            if constexpr (!Ctx::kSimulated) {
                perf::spanEnd(hwSlot_, hwToken_, ev_.name,
                              static_cast<std::uint8_t>(ev_.cat),
                              ev_.end - ev_.begin);
            }
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Track* track_ = nullptr;
    Ctx* ctx_ = nullptr;
    const char* prior_ = nullptr;
    SpanEvent ev_;
    int hwSlot_ = 0;
    int hwToken_ = -1;
};

/**
 * RAII span on the host track (native ns clock): wraps driver-level
 * work such as a whole kernel invocation.
 */
class ScopedHostSpan {
  public:
    explicit ScopedHostSpan(const char* name, std::uint64_t arg = 0,
                            SpanCat cat = SpanCat::kKernel)
    {
        track_ = trackFor(sink(), TrackKind::kHost, 0);
        if (track_ != nullptr) {
            ev_ = {nowNs(), 0, name, arg, cat};
            prior_ = track_->pushLive(name);
            hwToken_ = perf::spanBegin(perf::kHostSlot);
        }
    }

    ~ScopedHostSpan()
    {
        if (track_ != nullptr) {
            track_->popLive(prior_);
            ev_.end = nowNs();
            spanRecord(track_, ev_);
            perf::spanEnd(perf::kHostSlot, hwToken_, ev_.name,
                          static_cast<std::uint8_t>(ev_.cat),
                          ev_.end - ev_.begin);
        }
    }

    ScopedHostSpan(const ScopedHostSpan&) = delete;
    ScopedHostSpan& operator=(const ScopedHostSpan&) = delete;

  private:
    Track* track_ = nullptr;
    const char* prior_ = nullptr;
    SpanEvent ev_;
    int hwToken_ = -1;
};

} // namespace crono::obs

#endif // CRONO_OBS_TELEMETRY_H_
