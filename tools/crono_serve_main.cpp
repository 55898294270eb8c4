/**
 * @file
 * crono_serve: stand up the graph query server over TCP.
 *
 * Builds (or generates) a graph, wraps it in a reordered
 * snapshot-versioned GraphStore, and serves the binary protocol of
 * serve/protocol.h on 127.0.0.1:<port>. With --smoke, instead runs a
 * self-contained loopback exercise — listen on an ephemeral port,
 * connect a TcpClient, ping / query / ingest / re-query / stats —
 * and exits nonzero on any mismatch, which is what the CI serve
 * smoke job drives.
 *
 * Usage:
 *   crono_serve [--scale=N] [--edge-factor=K] [--seed=S]
 *               [--workers=N] [--threads=N]
 *               [--reorder=none|degree|hub|bfs|rcm]
 *               [--port=P] [--smoke]
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "graph/generators.h"
#include "graph/reorder.h"
#include "runtime/executor.h"
#include "serve/net.h"
#include "serve/server.h"

namespace {

using namespace crono;

struct Args {
    unsigned scale = 14;
    unsigned edge_factor = 8;
    std::uint64_t seed = 42;
    int workers = 2;
    int threads = 2;
    graph::Reordering reorder = graph::Reordering::kDegreeSort;
    std::uint16_t port = 0;
    bool smoke = false;
};

bool
parseReordering(const char* name, graph::Reordering* out)
{
    for (const graph::Reordering r : graph::allReorderings()) {
        if (std::strcmp(name, graph::reorderingName(r)) == 0) {
            *out = r;
            return true;
        }
    }
    return false;
}

bool
parseArgs(int argc, char** argv, Args* a)
{
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0) {
            a->scale = static_cast<unsigned>(std::atoi(arg + 8));
        } else if (std::strncmp(arg, "--edge-factor=", 14) == 0) {
            a->edge_factor =
                static_cast<unsigned>(std::atoi(arg + 14));
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            a->seed = std::strtoull(arg + 7, nullptr, 10);
        } else if (std::strncmp(arg, "--workers=", 10) == 0) {
            a->workers = std::atoi(arg + 10);
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            a->threads = std::atoi(arg + 10);
        } else if (std::strncmp(arg, "--reorder=", 10) == 0) {
            if (!parseReordering(arg + 10, &a->reorder)) {
                std::fprintf(stderr, "unknown reordering: %s\n",
                             arg + 10);
                return false;
            }
        } else if (std::strncmp(arg, "--port=", 7) == 0) {
            a->port = static_cast<std::uint16_t>(std::atoi(arg + 7));
        } else if (std::strcmp(arg, "--smoke") == 0) {
            a->smoke = true;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg);
            return false;
        }
    }
    return true;
}

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop = true;
}

/** The --smoke loopback exercise. @return process exit code. */
int
runSmoke(std::uint16_t port)
{
    serve::TcpClient client("127.0.0.1", port);
    if (!client.connected()) {
        std::fprintf(stderr, "smoke: connect failed\n");
        return 1;
    }

    serve::Request req;
    req.op = serve::Op::kPing;
    serve::Response r = client.call(req);
    if (r.status != serve::Status::kOk || r.epoch == 0) {
        std::fprintf(stderr, "smoke: ping failed (%s)\n",
                     serve::statusName(r.status));
        return 1;
    }
    const std::uint64_t epoch0 = r.epoch;

    req = {};
    req.op = serve::Op::kSsspDist;
    req.source = 0;
    req.target = 1;
    const serve::Response before = client.call(req);
    if (before.status != serve::Status::kOk ||
        before.values.size() != 1) {
        std::fprintf(stderr, "smoke: sssp failed (%s)\n",
                     serve::statusName(before.status));
        return 1;
    }

    // Ingest a short zero-ish-weight path 0 - 1: the distance after
    // must be <= the distance before (new edges only add paths).
    req = {};
    req.op = serve::Op::kIngest;
    req.edges.push_back({0, 1, 1});
    r = client.call(req);
    if (r.status != serve::Status::kOk || r.epoch <= epoch0) {
        std::fprintf(stderr, "smoke: ingest failed (%s)\n",
                     serve::statusName(r.status));
        return 1;
    }

    req = {};
    req.op = serve::Op::kSsspDist;
    req.source = 0;
    req.target = 1;
    const serve::Response after = client.call(req);
    if (after.status != serve::Status::kOk ||
        after.values.size() != 1 || after.epoch <= epoch0 ||
        after.values[0] > 1) {
        std::fprintf(stderr, "smoke: post-ingest distance wrong\n");
        return 1;
    }

    req = {};
    req.op = serve::Op::kCompact;
    r = client.call(req);
    if (r.status != serve::Status::kOk) {
        std::fprintf(stderr, "smoke: compact failed\n");
        return 1;
    }

    req = {};
    req.op = serve::Op::kSsspDist;
    req.source = 0;
    req.target = 1;
    const serve::Response compacted = client.call(req);
    if (compacted.status != serve::Status::kOk ||
        compacted.values != after.values) {
        std::fprintf(stderr,
                     "smoke: compaction changed an answer\n");
        return 1;
    }

    req = {};
    req.op = serve::Op::kStats;
    r = client.call(req);
    if (r.status != serve::Status::kOk ||
        r.text.find("crono.serve.v1") == std::string::npos) {
        std::fprintf(stderr, "smoke: stats document missing\n");
        return 1;
    }
    std::printf("%s\n", r.text.c_str());
    std::printf("smoke: ok (epoch %llu -> %llu)\n",
                static_cast<unsigned long long>(epoch0),
                static_cast<unsigned long long>(compacted.epoch));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        return 2;
    }
    if (args.smoke) {
        // Keep the self-test fast regardless of defaults.
        args.scale = std::min(args.scale, 10u);
    }

    std::printf("building kronecker scale %u (seed %llu)...\n",
                args.scale,
                static_cast<unsigned long long>(args.seed));
    graph::Graph g = graph::generators::kronecker(
        args.scale, args.edge_factor, /*max_weight=*/64, args.seed);

    serve::StoreConfig store_cfg;
    store_cfg.reordering = args.reorder;
    serve::GraphStore store(std::move(g), store_cfg);

    rt::NativeExecutor exec(args.threads);
    serve::ServerConfig server_cfg;
    server_cfg.num_workers = args.workers;
    server_cfg.query.nthreads = args.threads;
    serve::Server server(store, exec, server_cfg);
    server.start();

    serve::TcpListener listener(server, args.port);
    if (!listener.start()) {
        std::fprintf(stderr, "cannot bind 127.0.0.1:%u\n", args.port);
        server.stop();
        return 1;
    }
    std::printf("serving %llu vertices / %llu edge slots on "
                "127.0.0.1:%u (%d workers, %s order)\n",
                static_cast<unsigned long long>(
                    store.snapshot()->numVertices()),
                static_cast<unsigned long long>(
                    store.snapshot()->numEdges()),
                listener.port(), server_cfg.num_workers,
                graph::reorderingName(store_cfg.reordering));

    int code = 0;
    if (args.smoke) {
        code = runSmoke(listener.port());
    } else {
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        while (!g_stop) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        std::printf("shutting down\n");
    }
    listener.stop();
    server.stop();
    return code;
}
