/**
 * @file
 * Machine-level tests: fibers, deterministic scheduling, simulated
 * synchronization (mutex handoff, barriers), the SimCtx contract,
 * thread multiplexing on the real-machine configuration, run
 * statistics invariants, and the independence of successive runs that
 * lets bench_paper read every figure from one sweep.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/aligned.h"
#include "core/suite.h"
#include "core/workloads.h"
#include "sim/fiber.h"
#include "sim/machine.h"

namespace crono::sim {
namespace {

Config
tinyConfig(int cores = 4)
{
    Config cfg = Config::futuristic256();
    cfg.num_cores = cores;
    return cfg;
}

TEST(Fiber, RunsToCompletion)
{
    int state = 0;
    Fiber f([&] { state = 42; }, 128 * 1024);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(state, 42);
}

TEST(Fiber, YieldAndResumeInterleave)
{
    std::vector<int> trace;
    Fiber* handle = nullptr;
    Fiber f(
        [&] {
            trace.push_back(1);
            handle->yieldToHost();
            trace.push_back(3);
        },
        128 * 1024);
    handle = &f;
    f.resume();
    trace.push_back(2);
    f.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, TwoFibersPingPong)
{
    std::vector<int> trace;
    Fiber *ha = nullptr, *hb = nullptr;
    Fiber a(
        [&] {
            trace.push_back(1);
            ha->yieldToHost();
            trace.push_back(4);
        },
        128 * 1024);
    Fiber b(
        [&] {
            trace.push_back(2);
            hb->yieldToHost();
            trace.push_back(5);
        },
        128 * 1024);
    ha = &a;
    hb = &b;
    a.resume();
    b.resume();
    trace.push_back(3);
    a.resume();
    b.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Machine, RunsAllThreads)
{
    Machine m(tinyConfig());
    std::vector<int> hits(8, 0);
    m.run(8, [&](SimCtx& ctx) {
        hits[ctx.tid()] = 1;
        EXPECT_EQ(ctx.nthreads(), 8);
    });
    for (int h : hits) {
        EXPECT_EQ(h, 1);
    }
}

TEST(Machine, ClockAdvancesWithWork)
{
    Machine m(tinyConfig());
    const auto st = m.run(2, [](SimCtx& ctx) { ctx.work(1000); });
    EXPECT_GE(st.completion_cycles, 1000u);
    EXPECT_EQ(st.l1i_accesses, 2000u);
}

TEST(Machine, ReadsAndWritesAreFunctionallyCorrect)
{
    Machine m(tinyConfig());
    AlignedVector<std::uint64_t> data(16, 0);
    m.run(4, [&](SimCtx& ctx) {
        ctx.write(data[ctx.tid()], static_cast<std::uint64_t>(ctx.tid()) + 1);
        ctx.barrier();
        std::uint64_t sum = 0;
        for (int t = 0; t < 4; ++t) {
            sum += ctx.read(data[t]);
        }
        ctx.write(data[8 + ctx.tid()], sum);
    });
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(data[8 + t], 10u);
    }
}

TEST(Machine, FetchAddIsAtomicAcrossFibers)
{
    Machine m(tinyConfig());
    Padded<std::uint64_t> counter;
    m.run(8, [&](SimCtx& ctx) {
        for (int i = 0; i < 100; ++i) {
            ctx.fetchAdd(counter.value, std::uint64_t{1});
        }
    });
    EXPECT_EQ(counter.value, 800u);
}

TEST(Machine, MutexProvidesMutualExclusion)
{
    Machine m(tinyConfig());
    SimMutex mutex;
    std::uint64_t plain = 0; // guarded only by the mutex
    m.run(8, [&](SimCtx& ctx) {
        for (int i = 0; i < 50; ++i) {
            ctx.lock(mutex);
            const std::uint64_t v = ctx.read(plain);
            ctx.work(3); // widen the critical section
            ctx.write(plain, v + 1);
            ctx.unlock(mutex);
        }
    });
    EXPECT_EQ(plain, 400u);
}

TEST(Machine, ContendedMutexChargesSynchronization)
{
    Machine m(tinyConfig());
    SimMutex mutex;
    const auto st = m.run(4, [&](SimCtx& ctx) {
        for (int i = 0; i < 20; ++i) {
            ctx.lock(mutex);
            ctx.work(500); // long critical section forces waiting
            ctx.unlock(mutex);
        }
    });
    EXPECT_GT(st.breakdown[Component::synchronization], 1000.0);
}

TEST(Machine, BarrierReleasesEveryoneTogether)
{
    Machine m(tinyConfig());
    AlignedVector<std::uint64_t> stage(8, 0);
    bool ok = true;
    m.run(8, [&](SimCtx& ctx) {
        // Uneven pre-barrier work.
        ctx.work(static_cast<std::uint64_t>(ctx.tid()) * 100);
        ctx.write(stage[ctx.tid()], std::uint64_t{1});
        ctx.barrier();
        for (int t = 0; t < 8; ++t) {
            if (ctx.read(stage[t]) != 1) {
                ok = false;
            }
        }
    });
    EXPECT_TRUE(ok);
}

TEST(Machine, RepeatedBarrierEpisodes)
{
    Machine m(tinyConfig());
    Padded<std::uint64_t> counter;
    bool ok = true;
    m.run(4, [&](SimCtx& ctx) {
        for (int round = 1; round <= 10; ++round) {
            ctx.fetchAdd(counter.value, std::uint64_t{1});
            ctx.barrier();
            if (ctx.read(counter.value) !=
                static_cast<std::uint64_t>(4 * round)) {
                ok = false;
            }
            ctx.barrier();
        }
    });
    EXPECT_TRUE(ok);
}

TEST(Machine, DeterministicAcrossRuns)
{
    Config cfg = tinyConfig(8);
    Machine m(cfg);
    auto body = [](SimCtx& ctx) {
        thread_local std::uint64_t sink = 0;
        static Padded<std::uint64_t> shared;
        for (int i = 0; i < 200; ++i) {
            ctx.fetchAdd(shared.value, std::uint64_t{1});
            ctx.work(ctx.tid() + 1);
            sink += i;
        }
    };
    const auto first = m.run(8, body).completion_cycles;
    const auto second = m.run(8, body).completion_cycles;
    EXPECT_EQ(first, second);
}

TEST(Machine, BreakdownCoversCompletionTime)
{
    Machine m(tinyConfig());
    const auto st = m.run(4, [&](SimCtx& ctx) {
        AlignedVector<std::uint64_t> local(64, 0);
        for (int i = 0; i < 64; ++i) {
            ctx.write(local[i], std::uint64_t{1});
        }
        ctx.work(100);
        ctx.barrier();
    });
    // Summed across threads, the breakdown must at least cover the
    // region's completion time (threads end within notify skew).
    EXPECT_GE(st.breakdown.total() + 4.0 * 64,
              static_cast<double>(st.completion_cycles));
    // And each thread's clock is bounded by the completion time.
    EXPECT_EQ(st.thread_ops.size(), 4u);
}

TEST(Machine, MultiplexingSerializesCoSCheduledThreads)
{
    // 2 cores, 4 threads: pure compute cannot speed up beyond 2x, and
    // context switches add overhead.
    Config cfg = tinyConfig(2);
    Machine m(cfg);
    auto body = [](SimCtx& ctx) { ctx.work(50000); };
    const auto two = m.run(2, body).completion_cycles;
    const auto four = m.run(4, body).completion_cycles;
    EXPECT_GE(four, 2 * two);
}

TEST(Machine, RealMachineConfigRuns)
{
    Machine m(Config::realMachine());
    AlignedVector<std::uint64_t> data(64, 0);
    const auto st = m.run(16, [&](SimCtx& ctx) { // 16 SW on 8 HW
        for (int i = 0; i < 32; ++i) {
            ctx.fetchAdd(data[i % 8], std::uint64_t{1});
        }
        ctx.barrier();
    });
    EXPECT_GT(st.completion_cycles, 0u);
    EXPECT_EQ(st.thread_ops.size(), 16u);
}

TEST(Machine, ParallelAdapterMatchesRun)
{
    Machine m(tinyConfig());
    const rt::RunInfo info =
        m.parallel(4, [](SimCtx& ctx) { ctx.work(100); });
    EXPECT_EQ(info.time,
              static_cast<double>(m.lastStats().completion_cycles));
    EXPECT_EQ(info.thread_ops.size(), 4u);
}

TEST(Machine, EnergyAccumulatesWithTraffic)
{
    Machine m(tinyConfig());
    AlignedVector<std::uint64_t> data(1024, 0);
    const auto st = m.run(4, [&](SimCtx& ctx) {
        for (std::size_t i = ctx.tid(); i < data.size(); i += 4) {
            ctx.write(data[i], std::uint64_t{1});
        }
    });
    EXPECT_GT(st.energy.total(), 0.0);
    EXPECT_GT(st.energy.l1d, 0.0);
    EXPECT_GT(st.energy.dram, 0.0); // cold misses hit memory
    EXPECT_GT(st.energy.router + st.energy.link, 0.0);
}

TEST(Machine, OpsCountPerThread)
{
    Machine m(tinyConfig());
    const auto st = m.run(2, [](SimCtx& ctx) {
        std::uint64_t x = 0;
        ctx.write(x, std::uint64_t{1});
        ctx.work(9);
    });
    for (std::uint64_t ops : st.thread_ops) {
        EXPECT_GE(ops, 10u);
    }
}

TEST(Machine, RunIgnoresEarlierRuns)
{
    // A t=4 run on a machine that already ran t=1 and t=2 must equal a
    // t=4 run on a fresh machine, in every statistic the figures read.
    core::WorkloadConfig wc;
    wc.graph_vertices = 256;
    wc.edges_per_vertex = 4;
    wc.matrix_vertices = 16;
    const core::WorkloadSet set(wc);
    for (const auto id : {core::BenchmarkId::bfs, core::BenchmarkId::apsp}) {
        SCOPED_TRACE(core::benchmarkName(id));
        const core::Workload w = set.forBenchmark(id);
        Machine swept(tinyConfig());
        for (const int t : {1, 2, 4}) {
            core::runBenchmark(id, swept, t, w);
        }
        Machine fresh(tinyConfig());
        core::runBenchmark(id, fresh, 4, w);
        const SimRunStats& a = swept.lastStats();
        const SimRunStats& b = fresh.lastStats();
        EXPECT_EQ(a.completion_cycles, b.completion_cycles);
        EXPECT_EQ(a.l1d.accesses, b.l1d.accesses);
        EXPECT_EQ(a.l1d.misses, b.l1d.misses);
        EXPECT_EQ(a.cacheHierarchyMissRate(), b.cacheHierarchyMissRate());
        EXPECT_EQ(a.breakdown.cycles, b.breakdown.cycles);
        const auto buckets = [](const EnergyBreakdown& e) {
            return std::vector<double>{e.l1i,    e.l1d,  e.l2,  e.directory,
                                       e.router, e.link, e.dram};
        };
        EXPECT_EQ(buckets(a.energy), buckets(b.energy));
    }
}

} // namespace
} // namespace crono::sim
