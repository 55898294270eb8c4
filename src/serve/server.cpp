/**
 * @file
 * Server implementation: routing, the query workers, the ingest
 * thread, and the in-process client.
 */

#include "serve/server.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "graph/reorder.h"
#include "obs/telemetry.h"

namespace crono::serve {

namespace {

/** Worker obs tracks sit above the kernel tids (single writer each). */
constexpr int kWorkerTrackBase = 256;
constexpr int kIngestTrackTid = 255;

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Server::Server(GraphStore& store, rt::NativeExecutor& exec,
               ServerConfig config)
    : store_(store), engine_(store, exec, config.query),
      config_(config), classes_(static_cast<std::size_t>(kNumOps))
{
    CRONO_REQUIRE(config_.num_workers >= 1, "server needs a worker");
    engine_.setStatsProvider([this] { return statsJson(); });
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    CRONO_REQUIRE(!running_, "server already started");
    stopping_ = false;
    running_ = true;
    start_ns_ = steadyNs();
    workers_.reserve(static_cast<std::size_t>(config_.num_workers));
    for (int w = 0; w < config_.num_workers; ++w) {
        workers_.emplace_back([this, w] { workerLoop(w); });
    }
    ingestThread_ = std::thread([this] { ingestLoop(); });
}

void
Server::stop()
{
    if (!running_.exchange(false)) {
        return;
    }
    // Raise stopping_ and swap each queue out in one critical section:
    // a racing route() either queued before (and is rejected here) or
    // sees stopping_ and rejects itself.
    for (Queue* q : {&queries_, &ingest_}) {
        std::deque<Pending> left;
        {
            std::lock_guard<std::mutex> lock(q->mutex);
            stopping_ = true;
            left.swap(q->items);
            q->cv.notify_all();
        }
        for (const Pending& p : left) {
            reject(p);
        }
    }
    for (std::thread& t : workers_) {
        t.join();
    }
    workers_.clear();
    if (ingestThread_.joinable()) {
        ingestThread_.join();
    }
    {
        std::lock_guard<std::mutex> lock(sessionMutex_);
        for (const std::shared_ptr<Session>& s : sessions_) {
            s->markDone();
        }
    }
}

void
Server::reject(const Pending& p)
{
    finish(p, errorResponse(p.req.id, Status::kRejected,
                            store_.snapshot()->epoch()));
}

std::shared_ptr<Session>
Server::openSession()
{
    std::lock_guard<std::mutex> lock(sessionMutex_);
    auto s = std::make_shared<Session>(nextSessionId_++);
    sessions_.push_back(s);
    return s;
}

void
Server::feed(const std::shared_ptr<Session>& session,
             std::span<const std::uint8_t> data)
{
    std::vector<Request> requests;
    session->feed(data, &requests);
    for (Request& req : requests) {
        route(session, std::move(req));
    }
}

void
Server::route(const std::shared_ptr<Session>& session, Request&& req)
{
    Pending p{session, std::move(req), steadyNs()};
    Queue& q = p.req.op == Op::kIngest || p.req.op == Op::kCompact
                   ? ingest_
                   : queries_;
    {
        std::lock_guard<std::mutex> lock(q.mutex);
        if (running_ && !stopping_) {
            q.items.push_back(std::move(p));
            q.cv.notify_one();
            return;
        }
    }
    reject(p);
}

bool
Server::pop(Queue* q, Pending* out)
{
    std::unique_lock<std::mutex> lock(q->mutex);
    q->cv.wait(lock, [&] { return stopping_ || !q->items.empty(); });
    if (stopping_) {
        return false;
    }
    *out = std::move(q->items.front());
    q->items.pop_front();
    return true;
}

void
Server::workerLoop(int w)
{
    obs::Track* const track = obs::trackFor(
        obs::sink(), obs::TrackKind::kHost, kWorkerTrackBase + w);
    Pending p;
    while (pop(&queries_, &p)) {
        finish(p, engine_.execute(p.req));
        // One snapshot pin per request, so batches == requests.
        obs::counterBump(track, obs::Counter::kServeBatches, 1);
        obs::counterBump(track, obs::Counter::kServeRequests, 1);
    }
}

void
Server::ingestLoop()
{
    obs::Track* const track = obs::trackFor(
        obs::sink(), obs::TrackKind::kHost, kIngestTrackTid);
    Pending p;
    while (pop(&ingest_, &p)) {
        const Response r = engine_.execute(p.req);
        if (r.status == Status::kOk) {
            if (p.req.op == Op::kIngest) {
                obs::counterBump(track,
                                 obs::Counter::kServeIngestEdges,
                                 p.req.edges.size());
            } else if (p.req.op == Op::kCompact) {
                obs::counterBump(track,
                                 obs::Counter::kServeCompactions, 1);
            }
        }
        obs::counterBump(track, obs::Counter::kServeRequests, 1);
        finish(p, r);
    }
}

void
Server::finish(const Pending& p, const Response& r)
{
    const std::uint64_t latency = steadyNs() - p.enqueue_ns;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ClassAgg& agg = classes_[static_cast<std::size_t>(p.req.op)];
        ++agg.count;
        if (r.status != Status::kOk) {
            ++agg.errors;
        }
        agg.latency_ns.add(latency);
    }
    p.session->sendResponse(r);
}

std::string
Server::statsJson() const
{
    const std::shared_ptr<const Snapshot> snap = store_.snapshot();
    const StoreStats st = store_.stats();

    ServeInfo info;
    info.num_workers = config_.num_workers;
    info.reordering =
        graph::reorderingName(store_.config().reordering);
    info.epoch = snap->epoch();
    info.vertices = snap->numVertices();
    info.edge_slots = snap->numEdges();
    info.delta_edges = snap->deltaEdges();
    info.delta_depth = snap->deltaDepth();
    info.batches_ingested = st.batches_ingested;
    info.edges_ingested = st.edges_ingested;
    info.compactions = st.compactions;

    std::vector<ClassStats> classes;
    ServeTotals totals;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        for (int op = 0; op < kNumOps; ++op) {
            const ClassAgg& agg =
                classes_[static_cast<std::size_t>(op)];
            ClassStats c;
            c.op = opName(static_cast<Op>(op));
            c.count = agg.count;
            c.errors = agg.errors;
            c.latency_ns = agg.latency_ns;
            classes.push_back(std::move(c));
            totals.requests += agg.count;
            totals.errors += agg.errors;
        }
    }
    totals.seconds =
        static_cast<double>(steadyNs() -
                            (start_ns_ != 0 ? start_ns_ : steadyNs())) /
        1e9;
    return serveReportJson(info, classes, totals, nullptr);
}

Client::Client(Server& server)
    : server_(server), session_(server.openSession())
{
}

Response
Client::call(Request req)
{
    req.id = nextId_++;
    std::vector<std::uint8_t> frame;
    encodeRequest(req, &frame);
    server_.feed(session_, frame);
    while (true) {
        const std::vector<std::uint8_t> bytes =
            session_->takeOutput(/*wait=*/true);
        if (bytes.empty()) {
            // Server shut down with our request unanswered.
            return errorResponse(req.id, Status::kRejected);
        }
        rx_.feed(bytes);
        while (auto payload = rx_.next()) {
            Response r;
            if (decodeResponse(*payload, &r) == Status::kOk &&
                r.id == req.id) {
                return r;
            }
        }
    }
}

} // namespace crono::serve
