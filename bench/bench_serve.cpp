/**
 * @file
 * Load generator + conformance driver for the serve stack: N client
 * threads issue a deterministic mix of query classes against a live
 * server while an ingest thread streams edge-update batches (plus one
 * final compaction), so every latency distribution includes epoch
 * churn — the serving regime the snapshot design exists for.
 *
 * Two loops:
 *  - closed (default): each client issues its next request the moment
 *    the previous response lands; concurrency == --clients.
 *  - open: each client fires on a fixed schedule derived from --rps
 *    (total across clients) and reports how often it fell behind.
 *
 * Reports:
 *  - <json>/serve_report.json — crono.serve.v1 (client-side p50/p90/
 *    p99 per class + workload block; see serve/report.h)
 *  - <json>/table_serve.json — crono.bench.v1 rows (one per class,
 *    plus serve/throughput) so the bench_compare regression gate and
 *    baselines work unchanged (bench/baselines/serve_quick.json)
 *
 * The request mix is a fixed 20-slot schedule (not sampled), so every
 * class appears whenever requests-per-client >= 20 and the report's
 * row set is deterministic — which the names-only coverage gate in
 * scripts/check_regression.sh depends on.
 *
 * --connect=HOST:PORT drives an already-running crono_serve over TCP
 * instead of an in-process server (protocol-identical).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "serve/net.h"
#include "serve/report.h"
#include "serve/server.h"

namespace {

using namespace crono;

struct Args {
    bench::Options common;
    int clients = 8;
    int requests = 0;       ///< per client; 0 = default by quick
    bool open_loop = false;
    double rps = 200.0;     ///< open loop: total target rate
    unsigned scale = 0;     ///< 0 = default by quick
    unsigned edge_factor = 8;
    int workers = 2;
    int threads = 2;
    unsigned pr_iters = 10;
    int sources = 4;        ///< distinct query sources (cache realism)
    int ingest_batches = 4;
    int ingest_every_ms = 5;
    graph::Reordering reorder = graph::Reordering::kDegreeSort;
    std::string connect;    ///< "host:port" (empty = in-process)
};

bool
parseArgs(int argc, char** argv, Args* a)
{
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--quick") == 0) {
            a->common.quick = true;
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            a->common.seed = std::strtoull(arg + 7, nullptr, 10);
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            a->common.json_dir = arg + 7;
        } else if (std::strcmp(arg, "--json") == 0) {
            a->common.json_dir = ".";
        } else if (std::strncmp(arg, "--clients=", 10) == 0) {
            a->clients = std::atoi(arg + 10);
        } else if (std::strncmp(arg, "--requests=", 11) == 0) {
            a->requests = std::atoi(arg + 11);
        } else if (std::strcmp(arg, "--mode=open") == 0) {
            a->open_loop = true;
        } else if (std::strcmp(arg, "--mode=closed") == 0) {
            a->open_loop = false;
        } else if (std::strncmp(arg, "--rps=", 6) == 0) {
            a->rps = std::atof(arg + 6);
        } else if (std::strncmp(arg, "--scale=", 8) == 0) {
            a->scale = static_cast<unsigned>(std::atoi(arg + 8));
        } else if (std::strncmp(arg, "--edge-factor=", 14) == 0) {
            a->edge_factor =
                static_cast<unsigned>(std::atoi(arg + 14));
        } else if (std::strncmp(arg, "--workers=", 10) == 0) {
            a->workers = std::atoi(arg + 10);
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            a->threads = std::atoi(arg + 10);
        } else if (std::strncmp(arg, "--pr-iters=", 11) == 0) {
            a->pr_iters = static_cast<unsigned>(std::atoi(arg + 11));
        } else if (std::strncmp(arg, "--sources=", 10) == 0) {
            a->sources = std::atoi(arg + 10);
        } else if (std::strncmp(arg, "--ingest-batches=", 17) == 0) {
            a->ingest_batches = std::atoi(arg + 17);
        } else if (std::strncmp(arg, "--ingest-every-ms=", 18) == 0) {
            a->ingest_every_ms = std::atoi(arg + 18);
        } else if (std::strncmp(arg, "--reorder=", 10) == 0) {
            bool found = false;
            for (const graph::Reordering r :
                 graph::allReorderings()) {
                if (std::strcmp(arg + 10,
                                graph::reorderingName(r)) == 0) {
                    a->reorder = r;
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "unknown reordering: %s\n",
                             arg + 10);
                return false;
            }
        } else if (std::strncmp(arg, "--connect=", 10) == 0) {
            a->connect = arg + 10;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg);
            return false;
        }
    }
    if (a->scale == 0) {
        a->scale = a->common.quick ? 12 : 20;
    }
    if (a->requests == 0) {
        a->requests = a->common.quick ? 25 : 50;
    }
    return true;
}

/** Uniform client interface over in-process and TCP transports. */
class AnyClient {
  public:
    virtual ~AnyClient() = default;
    virtual serve::Response call(serve::Request req) = 0;
};

class LocalClient final : public AnyClient {
  public:
    explicit LocalClient(serve::Server& server) : c_(server) {}
    serve::Response
    call(serve::Request req) override
    {
        return c_.call(std::move(req));
    }

  private:
    serve::Client c_;
};

class RemoteClient final : public AnyClient {
  public:
    RemoteClient(const std::string& host, std::uint16_t port)
        : c_(host, port)
    {
    }
    bool connected() const { return c_.connected(); }
    serve::Response
    call(serve::Request req) override
    {
        return c_.call(std::move(req));
    }

  private:
    serve::TcpClient c_;
};

/**
 * The fixed 20-slot request-class schedule (see file header). Point
 * query sources are drawn from the shared source pool so epochs hit
 * warm kernel caches the way a real workload's hot keys do.
 */
constexpr serve::Op kSchedule[20] = {
    serve::Op::kPing,      serve::Op::kBfsDist,
    serve::Op::kSsspDist,  serve::Op::kBfsDist,
    serve::Op::kComponent, serve::Op::kSsspDist,
    serve::Op::kSsspBatch, serve::Op::kTopDegree,
    serve::Op::kSsspDist,  serve::Op::kRankScore,
    serve::Op::kBfsDist,   serve::Op::kComponent,
    serve::Op::kSsspDist,  serve::Op::kTopRank,
    serve::Op::kSsspBatch, serve::Op::kRankScore,
    serve::Op::kBfsDist,   serve::Op::kComponent,
    serve::Op::kSsspDist,  serve::Op::kTopDegree,
};

/** Per-class latency aggregation (one per client, merged at exit). */
struct ClassAgg {
    std::uint64_t count = 0;
    std::uint64_t errors = 0;
    obs::LogHistogram lat_ns;
};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct ClientStats {
    std::vector<ClassAgg> classes{
        static_cast<std::size_t>(serve::kNumOps)};
    std::uint64_t behind = 0; ///< open loop: late-fire count
};

void
clientLoop(AnyClient* client, const Args& args, int client_id,
           graph::VertexId num_vertices,
           const std::vector<graph::VertexId>& sources,
           ClientStats* stats)
{
    Rng rng(args.common.seed * 7919 +
            static_cast<std::uint64_t>(client_id));
    const double interval_ns =
        args.open_loop ? 1e9 * args.clients / args.rps : 0.0;
    const std::uint64_t t0 = nowNs();

    for (int i = 0; i < args.requests; ++i) {
        if (args.open_loop) {
            const auto due = t0 + static_cast<std::uint64_t>(
                                      interval_ns * i);
            const std::uint64_t now = nowNs();
            if (now < due) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now));
            } else if (i > 0) {
                ++stats->behind;
            }
        }
        serve::Request req;
        req.op = kSchedule[static_cast<std::size_t>(i) % 20];
        switch (req.op) {
          case serve::Op::kBfsDist:
          case serve::Op::kSsspDist:
            req.source = sources[rng.nextBelow(sources.size())];
            req.target = static_cast<graph::VertexId>(
                rng.nextBelow(num_vertices));
            break;
          case serve::Op::kSsspBatch:
            req.source = sources[rng.nextBelow(sources.size())];
            for (int t = 0; t < 8; ++t) {
                req.targets.push_back(static_cast<graph::VertexId>(
                    rng.nextBelow(num_vertices)));
            }
            break;
          case serve::Op::kComponent:
          case serve::Op::kRankScore:
            req.source = sources[rng.nextBelow(sources.size())];
            break;
          case serve::Op::kTopDegree:
          case serve::Op::kTopRank:
            req.k = 10;
            break;
          default:
            break;
        }
        const serve::Op op = req.op;
        const std::uint64_t begin = nowNs();
        const serve::Response resp = client->call(std::move(req));
        const std::uint64_t latency = nowNs() - begin;
        ClassAgg& agg = stats->classes[static_cast<std::size_t>(op)];
        ++agg.count;
        if (resp.status != serve::Status::kOk) {
            ++agg.errors;
        }
        agg.lat_ns.add(latency);
    }
}

void
ingestLoop(AnyClient* client, const Args& args,
           graph::VertexId num_vertices,
           const std::atomic<bool>* clients_done, ClientStats* stats)
{
    Rng rng(args.common.seed * 104729 + 17);
    for (int b = 0; b < args.ingest_batches; ++b) {
        if (clients_done->load()) {
            break; // measurement window over; stop churning epochs
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.ingest_every_ms));
        serve::Request req;
        req.op = serve::Op::kIngest;
        for (int e = 0; e < 32; ++e) {
            req.edges.push_back(
                {static_cast<graph::VertexId>(
                     rng.nextBelow(num_vertices)),
                 static_cast<graph::VertexId>(
                     rng.nextBelow(num_vertices)),
                 static_cast<graph::Weight>(1 + rng.nextBelow(64))});
        }
        const std::uint64_t begin = nowNs();
        const serve::Response resp = client->call(std::move(req));
        const std::uint64_t latency = nowNs() - begin;
        ClassAgg& agg = stats->classes[static_cast<std::size_t>(
            serve::Op::kIngest)];
        ++agg.count;
        if (resp.status != serve::Status::kOk) {
            ++agg.errors;
        }
        agg.lat_ns.add(latency);
    }
    // One forced compaction inside the window so its latency class is
    // always present in the report.
    serve::Request req;
    req.op = serve::Op::kCompact;
    const std::uint64_t begin = nowNs();
    const serve::Response resp = client->call(std::move(req));
    ClassAgg& agg =
        stats->classes[static_cast<std::size_t>(serve::Op::kCompact)];
    ++agg.count;
    if (resp.status != serve::Status::kOk) {
        ++agg.errors;
    }
    agg.lat_ns.add(nowNs() - begin);
}

/** Fill the report's server block from a kStats round trip. */
serve::ServeInfo
serverInfoFrom(AnyClient* client)
{
    serve::ServeInfo info;
    serve::Request req;
    req.op = serve::Op::kStats;
    const serve::Response resp = client->call(std::move(req));
    obs::json::Value doc;
    if (resp.status != serve::Status::kOk ||
        !obs::json::parse(resp.text, doc)) {
        return info;
    }
    const obs::json::Value* server = doc.find("server");
    if (server == nullptr) {
        return info;
    }
    const auto u64 = [&](const char* key) -> std::uint64_t {
        const obs::json::Value* v = server->find(key);
        return v != nullptr ? v->asU64() : 0;
    };
    info.num_workers = static_cast<int>(u64("num_workers"));
    if (const obs::json::Value* r = server->find("reordering")) {
        info.reordering = r->str;
    }
    info.epoch = u64("epoch");
    info.vertices = u64("vertices");
    info.edge_slots = u64("edge_slots");
    info.delta_edges = u64("delta_edges");
    info.delta_depth = u64("delta_depth");
    info.batches_ingested = u64("batches_ingested");
    info.edges_ingested = u64("edges_ingested");
    info.compactions = u64("compactions");
    return info;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        return 2;
    }
    const std::string graph_name =
        "kron-" + std::to_string(args.scale);

    // In-process serving stack (unless --connect).
    std::unique_ptr<serve::GraphStore> store;
    std::unique_ptr<rt::NativeExecutor> exec;
    std::unique_ptr<serve::Server> server;
    graph::VertexId num_vertices = 0;
    std::uint64_t edge_slots = 0;

    if (args.connect.empty()) {
        std::printf("building %s (seed %llu)...\n", graph_name.c_str(),
                    static_cast<unsigned long long>(args.common.seed));
        graph::Graph g = graph::generators::kronecker(
            args.scale, args.edge_factor, /*max_weight=*/64,
            args.common.seed);
        num_vertices = g.numVertices();
        edge_slots = g.numEdges();
        serve::StoreConfig store_cfg;
        store_cfg.reordering = args.reorder;
        store = std::make_unique<serve::GraphStore>(std::move(g),
                                                    store_cfg);
        exec = std::make_unique<rt::NativeExecutor>(args.threads);
        serve::ServerConfig server_cfg;
        server_cfg.num_workers = args.workers;
        server_cfg.query.nthreads = args.threads;
        server_cfg.query.pagerank_iterations = args.pr_iters;
        server = std::make_unique<serve::Server>(*store, *exec,
                                                 server_cfg);
        server->start();
    }

    const auto makeClient = [&]() -> std::unique_ptr<AnyClient> {
        if (args.connect.empty()) {
            return std::make_unique<LocalClient>(*server);
        }
        const std::size_t colon = args.connect.rfind(':');
        const std::string host = args.connect.substr(0, colon);
        const auto port = static_cast<std::uint16_t>(
            std::atoi(args.connect.c_str() + colon + 1));
        auto c = std::make_unique<RemoteClient>(host, port);
        if (!c->connected()) {
            std::fprintf(stderr, "cannot connect to %s\n",
                         args.connect.c_str());
            std::exit(1);
        }
        return c;
    };

    if (!args.connect.empty()) {
        // Probe the remote store's shape for sources/targets.
        auto probe = makeClient();
        const serve::ServeInfo info = serverInfoFrom(probe.get());
        num_vertices =
            static_cast<graph::VertexId>(info.vertices);
        edge_slots = info.edge_slots;
        if (num_vertices == 0) {
            std::fprintf(stderr, "remote stats probe failed\n");
            return 1;
        }
    }

    // Shared source pool: hot keys, deterministic in the seed.
    Rng src_rng(args.common.seed);
    std::vector<graph::VertexId> sources;
    for (int i = 0; i < args.sources; ++i) {
        sources.push_back(static_cast<graph::VertexId>(
            src_rng.nextBelow(num_vertices)));
    }

    std::printf(
        "%s loop: %d clients x %d requests, %d-source pool, "
        "%d ingest batches\n",
        args.open_loop ? "open" : "closed", args.clients,
        args.requests, args.sources, args.ingest_batches);

    std::vector<std::unique_ptr<AnyClient>> clients;
    for (int c = 0; c < args.clients + 1; ++c) {
        clients.push_back(makeClient()); // last one is the ingester
    }

    std::vector<ClientStats> stats(
        static_cast<std::size_t>(args.clients) + 1);
    std::atomic<bool> clients_done{false};

    const std::uint64_t window_begin = nowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < args.clients; ++c) {
        threads.emplace_back([&, c] {
            clientLoop(clients[static_cast<std::size_t>(c)].get(),
                       args, c, num_vertices, sources,
                       &stats[static_cast<std::size_t>(c)]);
        });
    }
    std::thread ingester([&] {
        ingestLoop(clients.back().get(), args, num_vertices,
                   &clients_done, &stats.back());
    });
    for (std::thread& t : threads) {
        t.join();
    }
    clients_done = true;
    ingester.join();
    const double seconds =
        static_cast<double>(nowNs() - window_begin) / 1e9;

    // Merge per-client aggregations.
    std::vector<ClassAgg> merged(
        static_cast<std::size_t>(serve::kNumOps));
    std::uint64_t behind = 0;
    for (const ClientStats& s : stats) {
        for (int op = 0; op < serve::kNumOps; ++op) {
            const ClassAgg& a =
                s.classes[static_cast<std::size_t>(op)];
            ClassAgg& m = merged[static_cast<std::size_t>(op)];
            m.count += a.count;
            m.errors += a.errors;
            m.lat_ns.merge(a.lat_ns);
        }
        behind += s.behind;
    }

    serve::ServeInfo info = serverInfoFrom(clients[0].get());
    serve::ServeTotals totals;
    totals.seconds = seconds;
    std::vector<serve::ClassStats> classes;
    for (int op = 0; op < serve::kNumOps; ++op) {
        const ClassAgg& m = merged[static_cast<std::size_t>(op)];
        serve::ClassStats c;
        c.op = serve::opName(static_cast<serve::Op>(op));
        c.count = m.count;
        c.errors = m.errors;
        c.latency_ns = m.lat_ns;
        classes.push_back(std::move(c));
        totals.requests += m.count;
        totals.errors += m.errors;
    }

    std::printf("%-12s %8s %6s %12s %12s %12s\n", "class", "count",
                "err", "p50_ms", "p90_ms", "p99_ms");
    for (const serve::ClassStats& c : classes) {
        if (c.count == 0) {
            continue;
        }
        std::printf("%-12s %8llu %6llu %12.3f %12.3f %12.3f\n", c.op,
                    static_cast<unsigned long long>(c.count),
                    static_cast<unsigned long long>(c.errors),
                    c.latency_ns.quantile(0.50) / 1e6,
                    c.latency_ns.quantile(0.90) / 1e6,
                    c.latency_ns.quantile(0.99) / 1e6);
    }
    std::printf("totals: %llu requests, %llu errors, %.2fs, "
                "%.1f req/s%s\n",
                static_cast<unsigned long long>(totals.requests),
                static_cast<unsigned long long>(totals.errors),
                totals.seconds,
                static_cast<double>(totals.requests) / totals.seconds,
                args.open_loop
                    ? (", behind " + std::to_string(behind)).c_str()
                    : "");

    if (!args.common.json_dir.empty()) {
        serve::WorkloadDesc wl;
        wl.mode = args.open_loop ? "open" : "closed";
        wl.clients = args.clients;
        wl.requests_per_client =
            static_cast<std::uint64_t>(args.requests);
        wl.target_rps = args.open_loop ? args.rps : 0.0;
        wl.ingest_batches =
            merged[static_cast<std::size_t>(serve::Op::kIngest)]
                .count;
        wl.graph = graph_name;
        wl.seed = args.common.seed;
        wl.quick = args.common.quick;
        const std::string report_path =
            args.common.json_dir + "/serve_report.json";
        if (!obs::writeTextFile(
                report_path,
                serve::serveReportJson(info, classes, totals, &wl))) {
            std::fprintf(stderr, "cannot write %s\n",
                         report_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", report_path.c_str());

        // crono.bench.v1 rows so bench_compare gates serve latencies
        // exactly like kernel times.
        std::vector<obs::BenchResult> rows;
        for (int op = 0; op < serve::kNumOps; ++op) {
            const ClassAgg& m = merged[static_cast<std::size_t>(op)];
            if (m.count == 0) {
                continue;
            }
            obs::BenchResult row;
            row.name = std::string("serve/") +
                       serve::opName(static_cast<serve::Op>(op)) +
                       "/c" + std::to_string(args.clients);
            row.kernel = serve::opName(static_cast<serve::Op>(op));
            row.graph = graph_name;
            row.vertices = num_vertices;
            row.edges = edge_slots;
            row.threads = args.clients;
            row.time_seconds = m.lat_ns.mean() / 1e9;
            row.trials = m.count;
            row.p50_seconds = m.lat_ns.quantile(0.50) / 1e9;
            row.p90_seconds = m.lat_ns.quantile(0.90) / 1e9;
            row.p99_seconds = m.lat_ns.quantile(0.99) / 1e9;
            rows.push_back(std::move(row));
        }
        obs::BenchResult tput;
        tput.name = "serve/throughput/c" + std::to_string(args.clients);
        tput.kernel = "throughput";
        tput.graph = graph_name;
        tput.vertices = num_vertices;
        tput.edges = edge_slots;
        tput.threads = args.clients;
        tput.time_seconds =
            totals.requests > 0
                ? totals.seconds /
                      static_cast<double>(totals.requests)
                : 0.0;
        tput.trials = totals.requests;
        rows.push_back(std::move(tput));
        if (!bench::writeBenchReport(
                bench::jsonPathFor(args.common, "table", "serve"),
                rows)) {
            return 1;
        }
    }

    if (server != nullptr) {
        server->stop();
    }
    return totals.errors == 0 ? 0 : 1;
}
