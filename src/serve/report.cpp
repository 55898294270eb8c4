/**
 * @file
 * crono.serve.v1 rendering. Field set is add-only; see report.h.
 */

#include "serve/report.h"

#include "obs/json.h"

namespace crono::serve {

namespace {

constexpr double kNsPerSecond = 1e9;

void
quantileField(obs::JsonWriter* w, const char* key,
              const obs::LogHistogram& h, double q)
{
    w->key(key).value(h.quantile(q) / kNsPerSecond);
}

} // namespace

std::string
serveReportJson(const ServeInfo& info,
                std::span<const ClassStats> classes,
                const ServeTotals& totals, const WorkloadDesc* workload)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("crono.serve.v1");

    w.key("server").beginObject();
    w.key("num_workers").value(info.num_workers);
    w.key("reordering").value(info.reordering);
    w.key("epoch").value(info.epoch);
    w.key("vertices").value(info.vertices);
    w.key("edge_slots").value(info.edge_slots);
    w.key("delta_edges").value(info.delta_edges);
    w.key("delta_depth").value(info.delta_depth);
    w.key("batches_ingested").value(info.batches_ingested);
    w.key("edges_ingested").value(info.edges_ingested);
    w.key("compactions").value(info.compactions);
    w.endObject();

    if (workload != nullptr) {
        w.key("workload").beginObject();
        w.key("mode").value(workload->mode);
        w.key("clients").value(workload->clients);
        w.key("requests_per_client")
            .value(workload->requests_per_client);
        w.key("target_rps").value(workload->target_rps);
        w.key("ingest_batches").value(workload->ingest_batches);
        w.key("graph").value(workload->graph);
        w.key("seed").value(workload->seed);
        w.key("quick").value(workload->quick);
        w.endObject();
    }

    w.key("classes").beginArray();
    for (const ClassStats& c : classes) {
        if (c.count == 0) {
            continue;
        }
        w.beginObject();
        w.key("op").value(c.op);
        w.key("count").value(c.count);
        w.key("errors").value(c.errors);
        w.key("mean_seconds")
            .value(c.latency_ns.mean() / kNsPerSecond);
        quantileField(&w, "p50_seconds", c.latency_ns, 0.50);
        quantileField(&w, "p90_seconds", c.latency_ns, 0.90);
        quantileField(&w, "p99_seconds", c.latency_ns, 0.99);
        w.key("min_seconds")
            .value(static_cast<double>(c.latency_ns.min()) /
                   kNsPerSecond);
        w.key("max_seconds")
            .value(static_cast<double>(c.latency_ns.max()) /
                   kNsPerSecond);
        w.endObject();
    }
    w.endArray();

    w.key("totals").beginObject();
    w.key("requests").value(totals.requests);
    w.key("errors").value(totals.errors);
    w.key("seconds").value(totals.seconds);
    w.key("throughput_rps")
        .value(totals.seconds > 0.0
                   ? static_cast<double>(totals.requests) /
                         totals.seconds
                   : 0.0);
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace crono::serve
