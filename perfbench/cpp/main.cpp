/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload road|kron|serve-churn --seed N --seconds S
 *             --trace 0|1
 *
 * One process of a benchmark run; perfbench/run.py starts it and
 * reports the run (see printResult for what each mode prints). Exit
 * code 0 means the run completed (wrong outputs are reported in
 * "failed", not by the exit code); 2 means bad arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common.h"
#include "obs/json.h"

namespace perfbench {

double
Samples::mean() const
{
    if (values_.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double v : values_) {
        sum += v;
    }
    return sum / static_cast<double>(values_.size());
}

std::vector<double>
Samples::sorted() const
{
    std::vector<double> s = values_;
    std::sort(s.begin(), s.end());
    return s;
}

double
Samples::median() const
{
    if (values_.empty()) {
        return 0.0;
    }
    const std::vector<double> s = sorted();
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

SourceWalk::SourceWalk(std::vector<ref::Vertex> pool, std::uint64_t seed)
    : pool_(std::move(pool)), used_(pool_.size(), false),
      pos_(static_cast<double>(seed % 1000003) / 1000003.0)
{
}

ref::Vertex
SourceWalk::next()
{
    constexpr double kInvPhi = 0.6180339887498949;
    pos_ += kInvPhi;
    pos_ -= std::floor(pos_);
    auto i = static_cast<std::size_t>(pos_ * static_cast<double>(pool_.size()));
    for (std::size_t probes = 0; used_[i]; ++probes) {
        if (probes == pool_.size()) {
            std::fprintf(stderr, "perfbench: source pool exhausted\n");
            std::exit(1);
        }
        i = (i + 1) % pool_.size();
    }
    used_[i] = true;
    return pool_[i];
}

ref::Csr
toRefCsr(const graph::Graph& g)
{
    ref::Csr out;
    out.offsets.assign(g.rawOffsets().begin(), g.rawOffsets().end());
    out.arcs.resize(g.numEdges());
    for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
        out.arcs[e] = {g.edgeTarget(e), g.edgeWeight(e)};
    }
    return out;
}

void
Result::check(const std::string& what, const std::string& error)
{
    ++attempted;
    if (!error.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: wrong %s: %s\n", what.c_str(),
                     error.c_str());
    }
}

const std::vector<MetricSpec>&
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"graph.generate_s", "s"},
        {"graph.reorder_s", "s"},
        {"runtime.rounds.bfs", "count"},
        {"runtime.rounds.sssp", "count"},
        {"runtime.rounds.cc", "count"},
        {"runtime.barrier_wait_frac.bfs", "ratio"},
        {"runtime.barrier_wait_frac.sssp", "ratio"},
        {"runtime.barrier_wait_frac.cc", "ratio"},
        {"runtime.barrier_wait_frac.pagerank", "ratio"},
        {"runtime.steal_chunks.bfs", "count"},
        {"runtime.steal_chunks.sssp", "count"},
        {"runtime.steal_chunks.cc", "count"},
        {"runtime.variability.bfs", "ratio"},
        {"runtime.variability.sssp", "ratio"},
        {"runtime.variability.cc", "ratio"},
        {"runtime.variability.pagerank", "ratio"},
        {"core.bfs.traced_ms", "ms"},
        {"core.sssp.traced_ms", "ms"},
        {"core.cc.traced_ms", "ms"},
        {"core.pagerank.traced_ms", "ms"},
        {"core.bfs.seq_ms", "ms"},
        {"core.sssp.seq_ms", "ms"},
        {"core.cc.seq_ms", "ms"},
        {"core.pagerank.seq_ms", "ms"},
        {"core.bfs.expansions", "count"},
        {"core.sssp.relaxations", "count"},
        {"core.sssp.bucket_steps", "count"},
        {"core.sssp.stale_skips", "count"},
        {"core.cc.relaxations", "count"},
        {"core.pagerank.iterations", "count"},
        {"serve.server.bfs_ms", "ms"},
        {"serve.server.sssp_ms", "ms"},
        {"serve.server.cc_ms", "ms"},
        {"serve.server.pagerank_ms", "ms"},
        {"serve.kernel.bfs_ms", "ms"},
        {"serve.kernel.sssp_ms", "ms"},
        {"serve.kernel.cc_ms", "ms"},
        {"serve.kernel.pagerank_ms", "ms"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.transport_ms", "ms"},
        {"serve.ingest_ms", "ms"},
        {"serve.compact_ms", "ms"},
        {"serve.store.ingest_ms", "ms"},
        {"serve.store.materialize_ms", "ms"},
        {"serve.batch_size", "count"},
        {"serve.kernel_runs", "count"},
        {"obs.trace_overhead", "ratio"},
    };
    return specs;
}

void
printResult(const Result& result, bool trace)
{
    obs::JsonWriter w;
    w.beginObject();
    if (!trace) {
        w.key("attempted").value(result.attempted);
        w.key("failed").value(result.failed);
        w.key("values").beginObject();
        for (const auto& [name, m] : result.metrics) {
            w.key(name).value(m.value);
        }
        w.endObject();
        w.key("samples").beginObject();
        for (const auto& [name, values] : result.samples) {
            w.key(name).beginArray();
            for (const double v : values) {
                w.value(v);
            }
            w.endArray();
        }
        w.endObject();
        w.endObject();
        std::cout << w.str() << std::endl;
        return;
    }
    const std::vector<MetricSpec>& specs = perLayerMetrics();
    for (const auto& [name, m] : result.metrics) {
        const bool known =
            std::any_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
                return name == s.name;
            });
        if (!known) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         name.c_str());
            std::exit(1);
        }
    }
    std::printf("%-36s %14s %-6s %8s\n", "metric", "value", "unit",
                "samples");
    w.key("correct").value(result.failed == 0);
    w.key("attempted").value(result.attempted);
    w.key("failed").value(result.failed);
    w.key("metrics").beginObject();
    for (const MetricSpec& s : specs) {
        const auto it = result.metrics.find(s.name);
        const Metric m = it != result.metrics.end() ? it->second : Metric{};
        std::printf("%-36s %14.6f %-6s %8zu\n", s.name, m.value, s.unit,
                    m.samples);
        w.key(s.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(s.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << w.str() << std::endl;
}

} // namespace perfbench

namespace {

/**
 * Start glibc's malloc at the mmap threshold a long-running process
 * settles at. Freeing an mmapped block raises the threshold to its
 * size, up to 32 MiB; until some block that large has been freed,
 * whether a kernel's per-call arrays come from fresh mmapped pages
 * (page faults on every call) or from the heap depends on the sizes
 * freed before, so whole-process medians fell at one of two levels
 * depending on the seed (Kronecker SSSP: 155 or 205 ms).
 */
void
settleAllocator()
{
    constexpr std::size_t kBytes = std::size_t{31} << 20;
    auto* block = static_cast<volatile char*>(std::malloc(kBytes));
    if (block != nullptr) {
        block[0] = 0;
        std::free(const_cast<char*>(block));
    }
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload road|kron|serve-churn "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* key = argv[i];
        const char* val = argv[i + 1];
        if (std::strcmp(key, "--workload") == 0) {
            args.workload = val;
        } else if (std::strcmp(key, "--seed") == 0) {
            args.seed = std::strtoull(val, nullptr, 10);
        } else if (std::strcmp(key, "--seconds") == 0) {
            args.seconds = std::atof(val);
        } else if (std::strcmp(key, "--trace") == 0) {
            args.trace = std::atoi(val) != 0;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !(args.seconds > 0.0)) {
        return usage();
    }
    settleAllocator();
    perfbench::Result result;
    if (args.workload == "road" || args.workload == "kron") {
        result = perfbench::runKernels(args);
    } else if (args.workload == "serve-churn") {
        result = perfbench::runServe(args);
    } else {
        return usage();
    }
    perfbench::printResult(result, args.trace);
    return 0;
}
