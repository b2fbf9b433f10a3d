/**
 * @file
 * Ablation 1 (DESIGN.md §5): the executor's loop fast-path.  Uses
 * google-benchmark to measure HC_first-probe throughput with the
 * fast-path enabled vs naive per-iteration execution, and reports the
 * infrastructure's raw command rate.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>

#include "bender/host.h"
#include "exec/pool.h"
#include "hammer/patterns.h"

namespace {

using namespace pud;

dram::DeviceConfig
benchConfig()
{
    dram::DeviceConfig cfg = dram::makeConfig("HMA81GU7AFR8N-UH", 1);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 128;
    cfg.cols = 512;
    return cfg;
}

void
BM_HammerProbe(benchmark::State &state)
{
    const bool fast = state.range(0) != 0;
    const auto hammers = static_cast<std::uint64_t>(state.range(1));

    bender::TestBench bench(benchConfig());
    bench.executor().setFastPath(fast);
    dram::Device &dev = bench.device();
    const dram::RowData aggr(512, dram::DataPattern::P55);
    const dram::RowData vict(512, dram::DataPattern::PAA);

    hammer::PatternTimings t;
    const auto program = hammer::doubleSidedRowHammer(
        0, dev.toLogical(32), dev.toLogical(34), hammers, t);

    for (auto _ : state) {
        bench.writeRow(0, dev.toLogical(32), aggr);
        bench.writeRow(0, dev.toLogical(34), aggr);
        bench.writeRow(0, dev.toLogical(33), vict);
        bench.run(program);
        benchmark::DoNotOptimize(
            bench.countBitflips(0, dev.toLogical(33), vict));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(hammers));
}

/**
 * REF-interleaved CoMRA probe (TRR off): the tREFI-cadence refresh
 * stream means every hot loop carries a REF, which the fast path
 * replays in one step up to the first stripe refresh that would land
 * on the hammered rows (the sampler ring advances closed-form)
 * instead of falling back to naive execution.
 */
void
BM_RefProbe(benchmark::State &state)
{
    const bool fast = state.range(0) != 0;
    const auto hammers = static_cast<std::uint64_t>(state.range(1));

    bender::TestBench bench(benchConfig());
    bench.executor().setFastPath(fast);
    dram::Device &dev = bench.device();
    const dram::RowData aggr(512, dram::DataPattern::P55);
    const dram::RowData vict(512, dram::DataPattern::PAA);

    hammer::PatternTimings t;
    const auto program = hammer::withRefInterleave(
        hammer::comraHammer(0, dev.toLogical(32), dev.toLogical(34),
                            hammers, t),
        t.base);

    for (auto _ : state) {
        bench.writeRow(0, dev.toLogical(32), aggr);
        bench.writeRow(0, dev.toLogical(34), aggr);
        bench.writeRow(0, dev.toLogical(33), vict);
        bench.run(program);
        benchmark::DoNotOptimize(
            bench.countBitflips(0, dev.toLogical(33), vict));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(hammers));
}

/**
 * REF-interleaved *combined* probe (the acceptance workload): a
 * CoMRA phase, a SiMRA phase, and a RowHammer phase, each carrying
 * the tREFI refresh stream -- the HC_first probe shape of the §6
 * combined-pattern sweeps with host refresh on.
 */
void
BM_CombinedRefProbe(benchmark::State &state)
{
    const bool fast = state.range(0) != 0;
    const auto hammers = static_cast<std::uint64_t>(state.range(1));

    bender::TestBench bench(benchConfig());
    bench.executor().setFastPath(fast);
    dram::Device &dev = bench.device();
    const dram::RowData aggr(512, dram::DataPattern::P55);
    const dram::RowData vict(512, dram::DataPattern::PAA);

    hammer::PatternTimings t;
    hammer::CombinedCounts counts;
    counts.comra = hammers / 4;
    counts.simra = hammers / 4;
    counts.rowHammer = hammers;
    const auto program = hammer::withRefInterleave(
        hammer::combinedPattern(0, dev.toLogical(32), dev.toLogical(34),
                                dev.toLogical(32), dev.toLogical(34),
                                dev.toLogical(40), dev.toLogical(46),
                                counts, t),
        t.base);

    for (auto _ : state) {
        bench.writeRow(0, dev.toLogical(32), aggr);
        bench.writeRow(0, dev.toLogical(34), aggr);
        bench.writeRow(0, dev.toLogical(33), vict);
        bench.run(program);
        benchmark::DoNotOptimize(
            bench.countBitflips(0, dev.toLogical(33), vict));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(hammers));
}

/**
 * Nested-loop probe: an outer sweep re-running a hot double-sided
 * loop.  The inner loop fast-paths inside each outer iteration; with
 * the cost model's consent the outer loop records across it.
 */
void
BM_NestedProbe(benchmark::State &state)
{
    const bool fast = state.range(0) != 0;
    const auto hammers = static_cast<std::uint64_t>(state.range(1));

    bender::TestBench bench(benchConfig());
    bench.executor().setFastPath(fast);
    dram::Device &dev = bench.device();
    const dram::RowData aggr(512, dram::DataPattern::P55);
    const dram::RowData vict(512, dram::DataPattern::PAA);

    hammer::PatternTimings t;
    const std::uint64_t inner = 64;
    const std::uint64_t outer =
        std::max<std::uint64_t>(1, hammers / inner);
    bender::Program program;
    program.loopBegin(outer);
    program.loopBegin(inner)
        .act(0, dev.toLogical(32), t.base.tRP)
        .pre(0, t.aggOn())
        .act(0, dev.toLogical(34), t.base.tRP)
        .pre(0, t.aggOn())
        .loopEnd();
    program.act(0, dev.toLogical(36), t.base.tRP)
        .pre(0, t.aggOn())
        .loopEnd();

    for (auto _ : state) {
        bench.writeRow(0, dev.toLogical(32), aggr);
        bench.writeRow(0, dev.toLogical(34), aggr);
        bench.writeRow(0, dev.toLogical(33), vict);
        bench.run(program);
        benchmark::DoNotOptimize(
            bench.countBitflips(0, dev.toLogical(33), vict));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(hammers));
}

void
BM_RawCommandRate(benchmark::State &state)
{
    bender::TestBench bench(benchConfig());
    bench.executor().setFastPath(false);
    dram::Device &dev = bench.device();

    hammer::PatternTimings t;
    const auto program = hammer::comraHammer(
        0, dev.toLogical(16), dev.toLogical(20), 256, t);

    for (auto _ : state)
        bench.run(program);
    // 4 commands per copy cycle.
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256 * 4);
}

/**
 * Dispatch overhead of exec::parallelFor: per-index cost of fanning a
 * batch of cheap work units across a pool, vs the jobs=1 inline loop.
 * The per-shard work in the population runner is orders of magnitude
 * heavier, so this bounds the scheduling tax, not the speedup.
 */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    const int jobs = static_cast<int>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));

    for (auto _ : state) {
        std::atomic<std::uint64_t> sum{0};
        exec::parallelFor(jobs, n, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        benchmark::DoNotOptimize(
            sum.load(std::memory_order_relaxed));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}

} // namespace

// {fast-path?, hammer count}
BENCHMARK(BM_HammerProbe)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 100000})
    ->Args({1, 100000})
    ->Args({1, 700000});

// {fast-path?, hammer count}
BENCHMARK(BM_RefProbe)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 100000})
    ->Args({1, 100000})
    ->Args({1, 700000});

// {fast-path?, hammer count}
BENCHMARK(BM_CombinedRefProbe)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 100000})
    ->Args({1, 100000})
    ->Args({1, 700000});

// {fast-path?, hammer count}
BENCHMARK(BM_NestedProbe)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 100000})
    ->Args({1, 100000})
    ->Args({1, 700000});

BENCHMARK(BM_RawCommandRate);

// {jobs, batch size}
BENCHMARK(BM_ParallelForDispatch)
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({4, 1024});

BENCHMARK_MAIN();
