/**
 * @file
 * Shared pieces of the benchmark driver: arguments, exact sample
 * statistics, source selection, the metric names and the result
 * printer.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "oracle.h"

namespace crono::core {}
namespace crono::obs {}
namespace crono::rt {}
namespace crono::serve {}

namespace perfbench {

namespace core = crono::core;
namespace graph = crono::graph;
namespace obs = crono::obs;
namespace rt = crono::rt;
namespace serve = crono::serve;

/** Kernel threads on every workload (see README: steadiness). */
inline constexpr int kThreads = 2;

/** Fixed PageRank depth and damping (the paper's r). */
inline constexpr unsigned kPageRankIterations = 5;
inline constexpr double kDamping = 0.15;

/**
 * Relative tolerance of the PageRank check. Program and reference sum
 * the same terms in different orders; that moves a double by about
 * 1e-15 relative, far inside this bound.
 */
inline constexpr double kPageRankTolerance = 1e-9;

/**
 * Seed of every input graph. The graphs are fixed, as in the GAP
 * methodology; --seed picks the sources, targets and ingest batches.
 * A graph drawn per seed moved whole-run medians by up to a third
 * (Kronecker BFS: 10 ms on most seeds, 14 ms on one), far more than
 * the sources do.
 */
inline constexpr std::uint64_t kGraphSeed = 1;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Raw samples of one quantity. Every statistic is exact. */
class Samples {
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t count() const { return values_.size(); }
    double mean() const;
    double median() const;
    const std::vector<double>& values() const { return values_; }

  private:
    std::vector<double> sorted() const;
    std::vector<double> values_;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/**
 * Seeded low-discrepancy walk over @p pool (a golden-ratio sequence
 * from a seeded start): every prefix of the walk spreads evenly over
 * the pool, so a run's median does not hinge on which few sources it
 * happened to draw. Never returns a pool entry twice.
 */
class SourceWalk {
  public:
    SourceWalk(std::vector<ref::Vertex> pool, std::uint64_t seed);
    ref::Vertex next();

  private:
    std::vector<ref::Vertex> pool_;
    std::vector<bool> used_;
    double pos_;
};

/** The benchmark's own copy of @p g's adjacency. */
ref::Csr toRefCsr(const graph::Graph& g);

/** One metric as printed. samples = 0 for a single measurement. */
struct Metric {
    double value = 0.0;
    std::size_t samples = 0;
};

/**
 * A run's outcome: metrics by name, raw samples by name, and the
 * operation counts.
 */
struct Result {
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::vector<double>> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void set(const std::string& name, double value, std::size_t samples = 0)
    {
        metrics[name] = Metric{value, samples};
    }

    /** Count one checked operation; @p error empty means correct. */
    void check(const std::string& what, const std::string& error);
};

/** Name and unit of every reported metric. */
struct MetricSpec {
    const char* name;
    const char* unit;
};

/** The per-layer metrics (--trace 1), every workload. */
const std::vector<MetricSpec>& perLayerMetrics();

/**
 * --trace 1: print the per-layer metric table (with sample counts)
 * and, as the last line, the result object; metrics a workload does
 * not measure print as 0. --trace 0: print, as the last line, the
 * part object run.py pools across processes: the operation counts,
 * the scalar values and the raw samples.
 */
void printResult(const Result& result, bool trace);

Result runKernels(const Args& args);
Result runServe(const Args& args);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
