/**
 * @file
 * The graph query server (DESIGN.md §17).
 *
 * Request flow: a transport feeds a Session's bytes; decoded requests
 * are routed — edge mutations (kIngest/kCompact) to the single ingest
 * thread, everything else to one FIFO query queue. Every query is a
 * whole-graph kernel run (or a cache hit on one) behind the engine's
 * kernel mutex, so there is no per-vertex locality to route for: a
 * worker pops the oldest request and answers it with
 * QueryEngine::execute, which pins the current snapshot itself.
 * Identical misses at one epoch run one kernel (the engine's
 * single-flight cache, query.h). The ingest thread merges edge
 * batches through the store, publishing one epoch per batch beside
 * the running kernels; only a compaction serializes with them, on the
 * engine's kernel mutex. In-flight queries keep their pinned epochs
 * throughout.
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

/** Server shape. */
struct ServerConfig {
    /** Query worker threads sharing the one request queue. */
    int num_workers = 2;
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

    /** Spawn the query workers and the ingest thread. */
    void start();

    /**
     * Drain-and-join: requests already being answered finish, queued
     * ones and any routed afterwards are answered kRejected, every
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

    /** One FIFO and its wakeup; stopping_ is read under its mutex. */
    struct Queue {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Pending> items;
    };

    /** Queue one decoded request (or reject it if stopping). */
    void route(const std::shared_ptr<Session>& session, Request&& req);

    /** Block for the next request of @p q; false once stopping. */
    bool pop(Queue* q, Pending* out);

    void workerLoop(int w);
    void ingestLoop();

    /** Record latency + class stats, then encode to the session. */
    void finish(const Pending& p, const Response& r);

    /** Answer @p p kRejected at the current epoch. */
    void reject(const Pending& p);

    GraphStore& store_;
    QueryEngine engine_;
    ServerConfig config_;

    std::atomic<bool> running_{false};
    /// Set under both queue mutexes, so a route() holding either one
    /// either queues before stop() swaps that queue out or sees it.
    std::atomic<bool> stopping_{false};

    Queue queries_;
    Queue ingest_; ///< kIngest / kCompact, one thread

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
