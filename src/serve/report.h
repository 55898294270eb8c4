/**
 * @file
 * The crono.serve.v1 report document (DESIGN.md §17.5).
 *
 * One JSON shape serves two producers: the server's kStats endpoint
 * (its own per-class latency histograms, measured request-entry to
 * response-encode) and bench_serve's load-generator report (client-
 * side latencies plus a "workload" block describing the generator).
 * Validators treat "workload" as optional and everything else as
 * required, and the schema is add-only like crono.bench.v1: consumers
 * must ignore unknown fields, fields are never renamed or repurposed.
 * The one removal so far: the server block's num_shards went with the
 * shard routing it described; num_workers took its place.
 *
 * Latencies are recorded into obs::LogHistogram in nanoseconds and
 * reported in seconds (p50/p90/p99 are log-bucket midpoints — see
 * histogram.h for the error bound).
 */

#ifndef CRONO_SERVE_REPORT_H_
#define CRONO_SERVE_REPORT_H_

#include <cstdint>
#include <span>
#include <string>

#include "obs/histogram.h"

namespace crono::serve {

/** The "server" block: server shape and ingest history. */
struct ServeInfo {
    int num_workers = 1;            ///< query worker threads
    std::string reordering = "none";
    std::uint64_t epoch = 0;
    std::uint64_t vertices = 0;
    std::uint64_t edge_slots = 0;   ///< directed slots of the epoch
    std::uint64_t delta_edges = 0;  ///< slots since the last compaction
    std::uint64_t delta_depth = 0;  ///< batches since the last compaction
    std::uint64_t batches_ingested = 0;
    std::uint64_t edges_ingested = 0;
    std::uint64_t compactions = 0;
};

/** Per-request-class latency record (histogram in nanoseconds). */
struct ClassStats {
    const char* op = "";            ///< opName() of the class
    std::uint64_t count = 0;        ///< responses, any status
    std::uint64_t errors = 0;       ///< responses with status != kOk
    obs::LogHistogram latency_ns;
};

/** The "totals" block. */
struct ServeTotals {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    double seconds = 0.0;           ///< measurement wall-clock window
};

/** The optional "workload" block (bench_serve reports only). */
struct WorkloadDesc {
    const char* mode = "closed";    ///< "closed" | "open"
    int clients = 0;
    std::uint64_t requests_per_client = 0;
    double target_rps = 0.0;        ///< open loop only; 0 = n/a
    std::uint64_t ingest_batches = 0;
    std::string graph;              ///< input description, e.g. "kron-16"
    std::uint64_t seed = 0;
    bool quick = false;
};

/**
 * Render a complete crono.serve.v1 document. Classes with zero count
 * are skipped; @p workload == nullptr omits the block (server-side
 * stats documents).
 */
std::string serveReportJson(const ServeInfo& info,
                            std::span<const ClassStats> classes,
                            const ServeTotals& totals,
                            const WorkloadDesc* workload = nullptr);

} // namespace crono::serve

#endif // CRONO_SERVE_REPORT_H_
