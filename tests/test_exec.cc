/**
 * @file
 * Unit tests for the pud::exec pool and the determinism guarantee of
 * the parallel population runner: for any jobs value the results must
 * be bit-identical to the serial path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "hammer/experiment.h"

namespace {

using namespace pud;
using namespace pud::exec;

TEST(Pool, IdleConstructDestruct)
{
    Pool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    // Destructor joins without a batch ever running.
}

TEST(Pool, ThreadCountClampedToOne)
{
    Pool pool(0);
    EXPECT_GE(pool.threads(), 1);
}

TEST(Pool, ForEachRunsEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);

    Pool pool(4);
    pool.forEach(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Pool, ReusableAcrossBatches)
{
    Pool pool(3);
    for (int batch = 0; batch < 5; ++batch) {
        std::atomic<std::size_t> sum{0};
        const std::size_t n = 10 * (batch + 1);
        pool.forEach(n, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(Pool, EmptyBatchIsANoOp)
{
    Pool pool(2);
    pool.forEach(0, [](std::size_t) { FAIL() << "unit ran"; });
}

TEST(Pool, ExceptionPropagatesToCaller)
{
    Pool pool(4);
    EXPECT_THROW(pool.forEach(100,
                              [](std::size_t i) {
                                  if (i == 37)
                                      throw std::runtime_error("unit 37");
                              }),
                 std::runtime_error);

    // The pool must survive a failed batch and run the next one.
    std::atomic<std::size_t> ran{0};
    pool.forEach(8, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8u);
}

TEST(ParallelFor, SerialJobsRunInlineOnCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(4);
    parallelFor(1, seen.size(), [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(ParallelFor, SingleUnitRunsInlineEvenWithManyJobs)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id seen;
    parallelFor(8, 1, [&](std::size_t) {
        seen = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, caller);
}

TEST(ParallelFor, CoversAllIndices)
{
    constexpr std::size_t n = 257;  // not a multiple of the job count
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    parallelFor(4, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ResolveJobs, AutoAndExplicit)
{
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(5), 5);
    EXPECT_EQ(resolveJobs(0), defaultJobs());
    EXPECT_EQ(resolveJobs(-3), defaultJobs());
    EXPECT_GE(defaultJobs(), 1);
}

// ---------------------------------------------------------------------------
// Determinism of the parallel population runner
// ---------------------------------------------------------------------------

using namespace pud::hammer;

PopulationConfig
tinyPopulation()
{
    PopulationConfig cfg;
    cfg.moduleId = "HMA81GU7AFR8N-UH";
    cfg.modules = 2;
    cfg.victimsPerSubarray = 2;
    cfg.rowsPerSubarray = 64;
    return cfg;
}

std::vector<MeasureFn>
tinyMeasures()
{
    // Two measures so work units = victims * 2; a reduced budget keeps
    // the sweep fast and produces a mix of numbers and NaN (kNoFlip).
    ModuleTester::Options opt;
    opt.search.maxHammers = 60000;
    return {[opt](ModuleTester &t, dram::RowId v) {
                return t.rhDouble(v, opt);
            },
            [opt](ModuleTester &t, dram::RowId v) {
                return t.comraDouble(v, opt);
            }};
}

/** Bit-level equality (NaN == NaN), which double operator== is not. */
bool
sameBits(const std::vector<std::vector<double>> &a,
         const std::vector<std::vector<double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s].size() != b[s].size())
            return false;
        if (!a[s].empty() &&
            std::memcmp(a[s].data(), b[s].data(),
                        a[s].size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

TEST(PopulationDeterminism, ParallelMatchesSerialBitForBit)
{
    const auto measures = tinyMeasures();
    PopulationConfig serial = tinyPopulation();
    serial.jobs = 1;
    const auto expected = measurePopulation(serial, measures);
    ASSERT_FALSE(expected[0].empty());

    for (int jobs : {2, 8}) {
        PopulationConfig par = tinyPopulation();
        par.jobs = jobs;
        const auto got = measurePopulation(par, measures);
        EXPECT_TRUE(sameBits(expected, got)) << "jobs=" << jobs;
    }
}

TEST(PopulationDeterminism, RepeatedRunsAreStable)
{
    const auto measures = tinyMeasures();
    PopulationConfig cfg = tinyPopulation();
    cfg.jobs = 4;
    const auto first = measurePopulation(cfg, measures);
    const auto second = measurePopulation(cfg, measures);
    EXPECT_TRUE(sameBits(first, second));
}

TEST(PopulationDeterminism, ChunkModeStableAcrossJobs)
{
    // Chunked sharding gives every chunk a fresh tester; its results
    // may differ from module-granularity ones, but must still be
    // independent of the jobs value (chunk boundaries depend only on
    // victimChunk).
    const auto measures = tinyMeasures();
    auto run = [&](int jobs) {
        PopulationConfig cfg = tinyPopulation();
        cfg.perVictimChunks = true;
        cfg.victimChunk = 3;
        cfg.jobs = jobs;
        return measurePopulation(cfg, measures);
    };
    const auto j1 = run(1);
    const auto j2 = run(2);
    const auto j8 = run(8);
    EXPECT_TRUE(sameBits(j1, j2));
    EXPECT_TRUE(sameBits(j1, j8));
}

TEST(PopulationTelemetryTest, ShardsCoverEveryWorkUnit)
{
    const auto measures = tinyMeasures();
    PopulationConfig cfg = tinyPopulation();
    cfg.jobs = 2;
    PopulationTelemetry t;
    const auto series = measurePopulation(cfg, measures, &t);

    EXPECT_EQ(t.jobs, 2);
    EXPECT_FALSE(t.perVictimChunks);
    // Module-granularity sharding: one shard per module instance.
    ASSERT_EQ(t.shards.size(), 2u);
    std::size_t victims = 0;
    for (const auto &s : t.shards) {
        EXPECT_EQ(s.workUnits, s.victims * measures.size());
        victims += s.victims;
    }
    EXPECT_EQ(victims, series[0].size());
    EXPECT_GE(t.wallSeconds, 0.0);
    EXPECT_GE(t.total().seconds, 0.0);
    EXPECT_EQ(t.workUnits(), victims * measures.size());
}

TEST(PopulationTelemetryTest, ChunkModeSplitsModules)
{
    const auto measures = tinyMeasures();
    PopulationConfig cfg = tinyPopulation();
    cfg.jobs = 2;
    cfg.perVictimChunks = true;
    cfg.victimChunk = 2;
    PopulationTelemetry t;
    const auto series = measurePopulation(cfg, measures, &t);

    EXPECT_TRUE(t.perVictimChunks);
    EXPECT_GT(t.shards.size(), 2u);  // finer than one shard per module
    std::size_t victims = 0;
    for (const auto &s : t.shards) {
        EXPECT_LE(s.victims, 2u);
        victims += s.victims;
    }
    EXPECT_EQ(victims, series[0].size());
}

} // namespace
