/**
 * @file
 * Schema smoke-test for every machine-readable report the bench
 * harnesses emit: each document must parse with the in-tree
 * obs::json::parse and carry its stable schema tag plus the fields
 * downstream tooling (BENCH_micro.json trajectory, table_reorder.json
 * speedup table) indexes on.
 *
 * Two modes:
 *  - self-contained (default): generate a crono.metrics.v1 document
 *    from a real instrumented run and a crono.bench.v1 document with
 *    reordering rows, write both to a temp dir, then validate every
 *    *.json found there;
 *  - CI sweep: when CRONO_REPORT_DIR is set (run_benches.sh --json=DIR
 *    output), validate every *.json the full bench sweep actually
 *    emitted instead.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/suite.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile_report.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "serve/report.h"

#ifdef CRONO_HAVE_STATICLINT
#include "analysis/static/analyzer.h"
#endif

namespace crono {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse @p text; fail the test with @p label and the parser error. */
obs::json::Value
parseOrFail(const std::string& text, const std::string& label)
{
    obs::json::Value doc;
    std::string err;
    EXPECT_TRUE(obs::json::parse(text, doc, &err))
        << label << ": " << err;
    return doc;
}

void
expectString(const obs::json::Value& v, const char* key)
{
    const obs::json::Value* f = v.find(key);
    ASSERT_NE(f, nullptr) << key;
    EXPECT_TRUE(f->isString()) << key;
}

void
expectNumber(const obs::json::Value& v, const char* key)
{
    const obs::json::Value* f = v.find(key);
    ASSERT_NE(f, nullptr) << key;
    EXPECT_TRUE(f->isNumber()) << key;
}

/** Validate one crono.bench.v1 document. */
void
checkBenchDoc(const obs::json::Value& doc)
{
    const obs::json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "crono.bench.v1");
    const obs::json::Value* results = doc.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_TRUE(results->isArray());
    for (const obs::json::Value& row : results->arr) {
        ASSERT_TRUE(row.isObject());
        expectString(row, "name");
        expectString(row, "kernel");
        expectString(row, "graph");
        expectString(row, "mode");
        expectNumber(row, "vertices");
        expectNumber(row, "edges");
        expectNumber(row, "threads");
        expectNumber(row, "time_seconds");
        expectNumber(row, "edges_per_second");
        expectNumber(row, "variability");
        // GAP-methodology fields (add-only schema extension). Rows
        // from bench_gap carry a real baseline measurement, so their
        // normalized speedup and trial count must be non-zero.
        expectNumber(row, "seq_seconds");
        expectNumber(row, "speedup");
        expectNumber(row, "trials");
        // Trial-distribution fields (add-only schema extension).
        expectNumber(row, "p50_seconds");
        expectNumber(row, "p90_seconds");
        expectNumber(row, "p99_seconds");
        const obs::json::Value* name = row.find("name");
        ASSERT_NE(name, nullptr);
        if (name->str.rfind("gap/", 0) == 0) {
            EXPECT_GT(row.find("speedup")->num, 0.0) << name->str;
            EXPECT_GT(row.find("seq_seconds")->num, 0.0) << name->str;
            EXPECT_GT(row.find("trials")->num, 0.0) << name->str;
            EXPECT_GT(row.find("p50_seconds")->num, 0.0) << name->str;
            EXPECT_LE(row.find("p50_seconds")->num,
                      row.find("p99_seconds")->num)
                << name->str;
        }
    }
}

/** Validate one crono.metrics.v1 document. */
void
checkMetricsDoc(const obs::json::Value& doc)
{
    const obs::json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "crono.metrics.v1");
    expectString(doc, "kernel");
    expectString(doc, "graph");
    expectNumber(doc, "threads");
    const obs::json::Value* runtime = doc.find("runtime");
    ASSERT_NE(runtime, nullptr);
    ASSERT_TRUE(runtime->isObject());
    expectNumber(*runtime, "time");
    const obs::json::Value* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_TRUE(counters->isObject());
}

/** Validate one crono.profile.v1 document. */
void
checkProfileDoc(const obs::json::Value& doc)
{
    const obs::json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "crono.profile.v1");
    const obs::json::Value* source = doc.find("source");
    ASSERT_NE(source, nullptr);
    ASSERT_TRUE(source->isString());
    // Every degradation tier must still produce a tagged document.
    EXPECT_TRUE(source->str == "perf" || source->str == "perf-sw" ||
                source->str == "fallback" || source->str == "none")
        << source->str;
    const obs::json::Value* sections = doc.find("sections");
    ASSERT_NE(sections, nullptr);
    ASSERT_TRUE(sections->isArray());
    for (const obs::json::Value& sec : sections->arr) {
        expectString(sec, "graph");
        expectNumber(sec, "threads");
        expectNumber(sec, "spans_dropped");
        const obs::json::Value* spans = sec.find("spans");
        ASSERT_NE(spans, nullptr);
        ASSERT_TRUE(spans->isArray());
        for (const obs::json::Value& sp : spans->arr) {
            expectString(sp, "name");
            expectString(sp, "cat");
            expectNumber(sp, "count");
            const obs::json::Value* dur = sp.find("duration_ns");
            ASSERT_NE(dur, nullptr);
            expectNumber(*dur, "mean");
            expectNumber(*dur, "p50");
            expectNumber(*dur, "p90");
            expectNumber(*dur, "p99");
            expectNumber(*dur, "max");
            EXPECT_LE(dur->find("p50")->num, dur->find("p99")->num);
            const obs::json::Value* counters = sp.find("counters");
            ASSERT_NE(counters, nullptr);
            EXPECT_TRUE(counters->isObject());
            const obs::json::Value* derived = sp.find("derived");
            ASSERT_NE(derived, nullptr);
            expectNumber(*derived, "ipc");
            expectNumber(*derived, "llc_miss_rate");
        }
        const obs::json::Value* imbalance = sec.find("imbalance");
        ASSERT_NE(imbalance, nullptr);
        expectNumber(*imbalance, "busy_cv");
        const obs::json::Value* threads = imbalance->find("threads");
        ASSERT_NE(threads, nullptr);
        ASSERT_TRUE(threads->isArray());
        for (const obs::json::Value& t : threads->arr) {
            expectNumber(t, "tid");
            expectNumber(t, "wall_ns");
            expectNumber(t, "busy_frac");
            expectNumber(t, "barrier_frac");
            expectNumber(t, "steal_frac");
        }
        const obs::json::Value* sim = sec.find("sim");
        ASSERT_NE(sim, nullptr);
        EXPECT_TRUE(sim->isNull() || sim->isArray());
        if (sim->isArray()) {
            for (const obs::json::Value& row : sim->arr) {
                expectString(row, "kernel");
                expectNumber(row, "completion_cycles");
                expectNumber(row, "l1d_miss_rate");
                expectNumber(row, "l2_miss_rate");
                expectNumber(row, "hierarchy_miss_rate");
            }
        }
    }
}

/** Validate one crono.lint.v1 document (crono_analyze --json). */
void
checkLintDoc(const obs::json::Value& doc)
{
    const obs::json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "crono.lint.v1");
    expectString(doc, "root");
    expectNumber(doc, "files_analyzed");
    expectNumber(doc, "suppressed");
    expectNumber(doc, "finding_count");
    const obs::json::Value* findings = doc.find("findings");
    ASSERT_NE(findings, nullptr);
    ASSERT_TRUE(findings->isArray());
    EXPECT_EQ(doc.find("finding_count")->num,
              static_cast<double>(findings->arr.size()));
    for (const obs::json::Value& f : findings->arr) {
        ASSERT_TRUE(f.isObject());
        expectString(f, "file");
        expectNumber(f, "line");
        expectString(f, "rule");
        expectString(f, "severity");
        expectString(f, "message");
        expectString(f, "snippet");
        EXPECT_GE(f.find("line")->num, 1.0);
    }
}

/** Validate one crono.serve.v1 document (serve/report.h). */
void
checkServeDoc(const obs::json::Value& doc)
{
    const obs::json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "crono.serve.v1");
    const obs::json::Value* server = doc.find("server");
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->isObject());
    expectNumber(*server, "num_workers");
    expectString(*server, "reordering");
    expectNumber(*server, "epoch");
    expectNumber(*server, "vertices");
    expectNumber(*server, "edge_slots");
    expectNumber(*server, "delta_edges");
    expectNumber(*server, "delta_depth");
    expectNumber(*server, "batches_ingested");
    expectNumber(*server, "edges_ingested");
    expectNumber(*server, "compactions");
    // "workload" is the schema's only optional block: present in
    // bench_serve reports, absent in the server's kStats documents.
    const obs::json::Value* workload = doc.find("workload");
    if (workload != nullptr) {
        ASSERT_TRUE(workload->isObject());
        expectString(*workload, "mode");
        expectNumber(*workload, "clients");
        expectNumber(*workload, "requests_per_client");
        expectNumber(*workload, "target_rps");
        expectNumber(*workload, "ingest_batches");
        expectString(*workload, "graph");
        expectNumber(*workload, "seed");
    }
    const obs::json::Value* classes = doc.find("classes");
    ASSERT_NE(classes, nullptr);
    ASSERT_TRUE(classes->isArray());
    for (const obs::json::Value& c : classes->arr) {
        ASSERT_TRUE(c.isObject());
        expectString(c, "op");
        expectNumber(c, "count");
        expectNumber(c, "errors");
        expectNumber(c, "mean_seconds");
        expectNumber(c, "p50_seconds");
        expectNumber(c, "p90_seconds");
        expectNumber(c, "p99_seconds");
        expectNumber(c, "min_seconds");
        expectNumber(c, "max_seconds");
        // Zero-count classes are skipped at render time, so every row
        // present must describe real traffic with ordered quantiles.
        EXPECT_GT(c.find("count")->num, 0.0) << c.find("op")->str;
        EXPECT_LE(c.find("p50_seconds")->num,
                  c.find("p99_seconds")->num)
            << c.find("op")->str;
    }
    const obs::json::Value* totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    ASSERT_TRUE(totals->isObject());
    expectNumber(*totals, "requests");
    expectNumber(*totals, "errors");
    expectNumber(*totals, "seconds");
    expectNumber(*totals, "throughput_rps");
}

/** Route a document to its schema's validator by tag. */
void
checkAnyReport(const obs::json::Value& doc, const std::string& label)
{
    SCOPED_TRACE(label);
    const obs::json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr) << "document has no schema tag";
    if (schema->str == "crono.bench.v1") {
        checkBenchDoc(doc);
    } else if (schema->str == "crono.metrics.v1") {
        checkMetricsDoc(doc);
    } else if (schema->str == "crono.profile.v1") {
        checkProfileDoc(doc);
    } else if (schema->str == "crono.lint.v1") {
        checkLintDoc(doc);
    } else if (schema->str == "crono.serve.v1") {
        checkServeDoc(doc);
    } else {
        FAIL() << "unknown schema tag " << schema->str;
    }
}

/** A real instrumented run: the reordering counters must appear. */
obs::MetricsReport
makeMetricsReport()
{
    obs::TelemetrySession session;
    const graph::ReorderedGraph rg = graph::reorderGraph(
        graph::generators::socialNetwork(7, 6, 3),
        graph::Reordering::kDegreeSort, /*blocked=*/true);
    rt::NativeExecutor exec(2);
    const auto res =
        core::pageRank(exec, 2, rg.graph, 3, 0.15, nullptr,
                       core::PageRankMode::kGather);
    obs::MetricsReport report;
    report.kernel = "PAGE_RANK";
    report.graph = "social(2^7,ef6)+degree+blocked";
    report.threads = 2;
    report.frontier_mode = "gather";
    report.setRuntime(res.run);
    report.setCounters(session.recorder());
    return report;
}

std::vector<obs::BenchResult>
makeBenchRows()
{
    std::vector<obs::BenchResult> rows;
    for (const graph::Reordering r : graph::allReorderings()) {
        obs::BenchResult row;
        row.name = std::string("pagerank/social/") +
                   graph::reorderingName(r) + "/t2";
        row.kernel = "PAGE_RANK";
        row.graph = "social(2^7,ef6)";
        row.vertices = 128;
        row.edges = 1024;
        row.threads = 2;
        row.mode = graph::reorderingName(r);
        row.time_seconds = 0.001;
        row.edges_per_second = 1024.0 / 0.001;
        rows.push_back(std::move(row));
    }
    return rows;
}

/** Rows shaped like bench_gap's output: baseline-normalized. */
std::vector<obs::BenchResult>
makeGapRows()
{
    std::vector<obs::BenchResult> rows;
    for (const char* mode : {"flagscan", "worklist", "delta"}) {
        obs::BenchResult row;
        row.name = std::string("gap/sssp/road(64^2)/") + mode + "/t1";
        row.kernel = "SSSP_DIJK";
        row.graph = "road(64^2)";
        row.vertices = 4096;
        row.edges = 13000;
        row.threads = 1;
        row.mode = mode;
        row.time_seconds = 0.002;
        row.edges_per_second = 13000.0 / 0.002;
        row.seq_seconds = 0.003;
        row.speedup = row.seq_seconds / row.time_seconds;
        row.trials = 4;
        row.setTrialPercentiles({0.0018, 0.0019, 0.0021, 0.0022});
        row.counters.emplace_back("relaxations", 13000);
        rows.push_back(std::move(row));
    }
    return rows;
}

/**
 * A serve report shaped like bench_serve's output: two request
 * classes with real histogram samples, plus the workload block. The
 * same renderer produces the server's kStats document (workload
 * omitted), exercised via the nullptr overload below.
 */
std::string
makeServeReportJson(bool with_workload)
{
    serve::ServeInfo info;
    info.num_workers = 4;
    info.reordering = "degree";
    info.epoch = 7;
    info.vertices = 4096;
    info.edge_slots = 65536;
    info.batches_ingested = 3;
    info.edges_ingested = 96;
    info.compactions = 1;
    std::vector<serve::ClassStats> classes(3);
    classes[0].op = "sssp";
    classes[0].count = 40;
    for (int i = 1; i <= 40; ++i) {
        classes[0].latency_ns.add(
            static_cast<std::uint64_t>(i) * 10000);
    }
    classes[1].op = "ingest";
    classes[1].count = 3;
    classes[1].errors = 1;
    for (const std::uint64_t ns : {50000, 70000, 90000}) {
        classes[1].latency_ns.add(ns);
    }
    classes[2].op = "never_requested"; // count 0: must be skipped
    serve::ServeTotals totals;
    totals.requests = 43;
    totals.errors = 1;
    totals.seconds = 0.5;
    serve::WorkloadDesc workload;
    workload.mode = "closed";
    workload.clients = 8;
    workload.requests_per_client = 5;
    workload.ingest_batches = 3;
    workload.graph = "kron-12";
    workload.seed = 42;
    workload.quick = true;
    return serve::serveReportJson(info, classes, totals,
                                  with_workload ? &workload : nullptr);
}

TEST(ReportSchema, ServeReportDocumentParses)
{
    const obs::json::Value doc =
        parseOrFail(makeServeReportJson(true), "serve report");
    checkServeDoc(doc);
    EXPECT_EQ(doc.find("server")->find("num_workers")->num, 4.0);
    EXPECT_EQ(doc.find("server")->find("reordering")->str, "degree");
    // The zero-count class was skipped, the real ones kept.
    ASSERT_EQ(doc.find("classes")->arr.size(), 2u);
    EXPECT_EQ(doc.find("classes")->arr[0].find("op")->str, "sssp");
    EXPECT_EQ(doc.find("classes")->arr[1].find("errors")->num, 1.0);
    EXPECT_NE(doc.find("workload"), nullptr);
    EXPECT_DOUBLE_EQ(
        doc.find("totals")->find("throughput_rps")->num, 86.0);

    // The kStats shape: same schema, no workload block.
    const obs::json::Value stats =
        parseOrFail(makeServeReportJson(false), "serve stats");
    checkServeDoc(stats);
    EXPECT_EQ(stats.find("workload"), nullptr);
}

/** A real profiled run, whatever counter tier this host lands on. */
obs::ProfileReport
makeProfileReport()
{
    obs::TelemetrySession telemetry;
    obs::perf::ProfileSession profile;
    {
        rt::NativeExecutor exec(2);
        const graph::Graph g = graph::generators::socialNetwork(7, 6, 3);
        core::bfs(exec, 2, g, 0, graph::kNoVertex, nullptr,
                  rt::FrontierMode::kAdaptive);
    }
    obs::ProfileSection sec;
    sec.graph = "social(2^7,ef6)";
    sec.threads = 2;
    sec.spans_dropped = telemetry.recorder().totalDropped();
    sec.spans = obs::collectSpanProfiles(profile.sessionCollector());
    sec.imbalance = obs::imbalanceFromRecorder(telemetry.recorder());
    obs::ProfileReport report;
    report.source = profile.sessionCollector().source();
    report.multiplexed = profile.sessionCollector().multiplexed();
    report.sections.push_back(std::move(sec));
    return report;
}

TEST(ReportSchema, ProfileDocumentParses)
{
    const obs::ProfileReport report = makeProfileReport();
    const obs::json::Value doc =
        parseOrFail(report.toJson(), "profile report");
    checkProfileDoc(doc);
    // The BFS kernel span must have been attributed.
    const obs::json::Value& sec = doc.find("sections")->arr.front();
    bool found_bfs = false;
    for (const obs::json::Value& sp : sec.find("spans")->arr) {
        if (sp.find("name")->str == "BFS") {
            found_bfs = true;
            EXPECT_GT(sp.find("count")->num, 0.0);
        }
    }
    EXPECT_TRUE(found_bfs);
}

TEST(ReportSchema, GapBenchDocumentParses)
{
    const std::string text = obs::benchSuiteJson(makeGapRows());
    const obs::json::Value doc = parseOrFail(text, "gap bench");
    checkBenchDoc(doc);
    const obs::json::Value* results = doc.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->arr.size(), 3u);
    const obs::json::Value& row = results->arr.front();
    EXPECT_DOUBLE_EQ(row.find("speedup")->num, 1.5);
    EXPECT_EQ(row.find("trials")->num, 4.0);
    // exactQuantile interpolates order statistics over the 4 samples.
    EXPECT_DOUBLE_EQ(row.find("p50_seconds")->num, 0.0020);
    EXPECT_NEAR(row.find("p99_seconds")->num, 0.0022, 1e-5);
}

TEST(ReportSchema, BenchSuiteDocumentParses)
{
    const std::string text = obs::benchSuiteJson(makeBenchRows());
    const obs::json::Value doc = parseOrFail(text, "bench suite");
    checkBenchDoc(doc);
    const obs::json::Value* results = doc.find("results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->arr.size(), graph::allReorderings().size());
    EXPECT_EQ(results->arr.front().find("mode")->str, "none");
}

TEST(ReportSchema, MetricsReportDocumentParses)
{
    const obs::MetricsReport report = makeMetricsReport();
    const obs::json::Value doc =
        parseOrFail(report.toJson(), "metrics report");
    checkMetricsDoc(doc);
    // The instrumented reorderGraph call must surface its counters.
    const obs::json::Value* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_NE(counters->find("reorder_ms"), nullptr);
    EXPECT_NE(counters->find("block_fills"), nullptr);
}

#ifdef CRONO_HAVE_STATICLINT
/** A lint run over in-memory sources with one finding and one
 *  suppression, shaped like crono_analyze --json output. */
std::string
makeLintReportJson()
{
    const staticlint::AnalysisResult res = staticlint::analyzeSources(
        {{"t.cpp",
          "std::mutex bad;\n"
          "// crono-lint: allow(volatile): exercised for the report\n"
          "volatile int suppressed_one = 0;\n"}});
    return staticlint::writeReportJson(res, "/root/repo");
}

TEST(ReportSchema, LintReportDocumentParses)
{
    const obs::json::Value doc =
        parseOrFail(makeLintReportJson(), "lint report");
    checkLintDoc(doc);
    ASSERT_EQ(doc.find("findings")->arr.size(), 1u);
    const obs::json::Value& f = doc.find("findings")->arr.front();
    EXPECT_EQ(f.find("rule")->str, "raw-sync");
    EXPECT_EQ(f.find("line")->num, 1.0);
    EXPECT_EQ(f.find("severity")->str, "error");
    EXPECT_EQ(doc.find("suppressed")->num, 1.0);
    EXPECT_EQ(doc.find("files_analyzed")->num, 1.0);
}
#endif // CRONO_HAVE_STATICLINT

TEST(ReportSchema, EveryEmittedReportParses)
{
    fs::path dir;
    const char* const env = std::getenv("CRONO_REPORT_DIR");
    if (env != nullptr && *env != '\0') {
        dir = env;
    } else {
        // Self-contained fallback: emit one document per schema the
        // benches produce, then sweep the directory like CI does.
        dir = fs::path(::testing::TempDir()) / "crono_reports";
        fs::create_directories(dir);
        ASSERT_TRUE(obs::writeTextFile(
            (dir / "table_reorder.json").string(),
            obs::benchSuiteJson(makeBenchRows())));
        ASSERT_TRUE(obs::writeTextFile(
            (dir / "table_gap.json").string(),
            obs::benchSuiteJson(makeGapRows())));
        ASSERT_TRUE(
            makeMetricsReport().writeJson((dir / "metrics.json").string()));
        ASSERT_TRUE(makeProfileReport().writeJson(
            (dir / "table_profile.json").string()));
        ASSERT_TRUE(obs::writeTextFile(
            (dir / "serve_report.json").string(),
            makeServeReportJson(true)));
#ifdef CRONO_HAVE_STATICLINT
        ASSERT_TRUE(obs::writeTextFile(
            (dir / "lint_report.json").string(), makeLintReportJson()));
#endif
    }
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::size_t checked = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".json") {
            continue;
        }
        const obs::json::Value doc = parseOrFail(
            slurp(entry.path()), entry.path().filename().string());
        checkAnyReport(doc, entry.path().filename().string());
        ++checked;
    }
    EXPECT_GT(checked, 0u) << "no .json reports found in " << dir;
}

} // namespace
} // namespace crono
