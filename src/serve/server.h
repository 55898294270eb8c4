/**
 * @file
 * The graph query server (DESIGN.md §17).
 *
 * Request flow: a transport feeds a Session's bytes; decoded requests
 * are routed — edge mutations (kIngest/kCompact) to the single ingest
 * thread, everything else to a per-shard queue keyed by the query's
 * source vertex in the *internal* (reordered) id space. Shard workers
 * drain one shard's queue up to batch_max requests at a time and
 * serve the whole batch against ONE pinned snapshot: consecutive
 * requests touch one contiguous, reordering-packed vertex range and
 * one epoch's caches, which is the server-side payoff of the PR-5
 * layouts. The ingest thread merges edge batches through the store,
 * publishing one epoch per batch beside the running kernels; only a
 * compaction serializes with them, on the engine's kernel mutex.
 * In-flight query batches keep their pinned epochs throughout.
 *
 * Latency accounting: every request is stamped at enqueue and its
 * class histogram (obs::LogHistogram, nanoseconds) updated when the
 * response is encoded — the numbers behind the kStats document and
 * the serve smoke checks. Worker threads bump the serve counters on
 * distinct obs host tracks (tid 256+w / 255 for ingest) to respect
 * the tracks' single-writer discipline; kernel spans stay on the
 * host track and are serialized by the engine's kernel mutex.
 */

#ifndef CRONO_SERVE_SERVER_H_
#define CRONO_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "runtime/executor.h"
#include "serve/query.h"
#include "serve/report.h"
#include "serve/session.h"
#include "serve/store.h"

namespace crono::serve {

/** Server shape and batching policy. */
struct ServerConfig {
    /** Shard worker threads (clamped to the store's shard count). */
    int num_workers = 2;
    /** Max requests drained per shard batch (one snapshot pin). */
    int batch_max = 16;
    /** Query-engine knobs (kernel threads, PageRank depth, cache). */
    QueryConfig query;
};

class Server {
  public:
    Server(GraphStore& store, rt::NativeExecutor& exec,
           ServerConfig config = {});

    /** Stops and joins if still running. */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Spawn the shard workers and the ingest thread. */
    void start();

    /**
     * Drain-and-join: in-queue requests are answered kRejected, every
     * session's waiters are released. Idempotent.
     */
    void stop();

    bool running() const { return running_; }

    /** Open an in-process connection. */
    std::shared_ptr<Session> openSession();

    /**
     * Push transport bytes for @p session: frames are decoded and
     * routed; responses appear in the session's output buffer.
     * Single caller per session at a time (transport discipline).
     */
    void feed(const std::shared_ptr<Session>& session,
              std::span<const std::uint8_t> data);

    /** The crono.serve.v1 stats document (also behind Op::kStats). */
    std::string statsJson() const;

    GraphStore& store() { return store_; }
    QueryEngine& engine() { return engine_; }
    const ServerConfig& config() const { return config_; }

  private:
    struct Pending {
        std::shared_ptr<Session> session;
        Request req;
        std::uint64_t enqueue_ns = 0;
    };

    /** Route one decoded request to its queue (or reject if down). */
    void route(const std::shared_ptr<Session>& session, Request&& req);

    void workerLoop(int w);
    void ingestLoop();

    /** Record latency + class stats, then encode to the session. */
    void finish(const Pending& p, const Response& r);

    /** Reject everything still queued (under no queue lock). */
    void drainReject(std::deque<Pending>* queue);

    GraphStore& store_;
    QueryEngine engine_;
    ServerConfig config_;

    std::atomic<bool> running_{false};
    /// Written under both queue mutexes (wakeup safety); atomic so
    /// route() can read it without them.
    std::atomic<bool> stopping_{false};

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::vector<std::deque<Pending>> shardQueues_;
    std::vector<std::size_t> nextShard_; ///< per-worker fairness cursor

    std::mutex ingestMutex_;
    std::condition_variable ingestCv_;
    std::deque<Pending> ingestQueue_;

    std::vector<std::thread> workers_;
    std::thread ingestThread_;

    std::mutex sessionMutex_;
    std::vector<std::shared_ptr<Session>> sessions_;
    std::uint64_t nextSessionId_ = 1;

    /** Per-class latency + error aggregation. */
    struct ClassAgg {
        std::uint64_t count = 0;
        std::uint64_t errors = 0;
        obs::LogHistogram latency_ns;
    };
    mutable std::mutex statsMutex_;
    std::vector<ClassAgg> classes_; ///< indexed by opcode
    std::uint64_t start_ns_ = 0;
};

/**
 * Synchronous in-process client: one session, one outstanding request
 * at a time, responses matched by id. This is the conformance tests'
 * client and the closed-loop load generator's per-thread client.
 */
class Client {
  public:
    explicit Client(Server& server);

    /** Assigns a fresh id, sends, and blocks for the response. */
    Response call(Request req);

    /** The underlying session (for raw-bytes protocol tests). */
    const std::shared_ptr<Session>& session() const { return session_; }

  private:
    Server& server_;
    std::shared_ptr<Session> session_;
    FrameSplitter rx_;
    std::uint32_t nextId_ = 1;
};

} // namespace crono::serve

#endif // CRONO_SERVE_SERVER_H_
