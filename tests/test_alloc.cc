/**
 * @file
 * Allocation regression test for the loop fast path and the live close
 * path: once a device is warm, recording one loop iteration and
 * replaying the rest, or running iterations naively, must not touch
 * the heap.  The test binary replaces the global allocation
 * functions with counting ones.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bender/host.h"
#include "bender/program.h"
#include "dram/device.h"
#include "hammer/patterns.h"
#include "mitigation/countermeasures.h"
#include "obs/metrics.h"

namespace {

std::size_t gNewCalls = 0;

void *
countedAlloc(std::size_t n)
{
    ++gNewCalls;
    return std::malloc(n == 0 ? 1 : n);
}

/**
 * Out of line, so the compiler cannot inline a delete into a caller
 * and flag the free() of a pointer it saw come from operator new.
 */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

namespace {

using namespace pud;
using namespace pud::dram;

/** The ACT/PRE body of a pattern builder's single loop. */
std::vector<bender::Inst>
loopBody(const bender::Program &p)
{
    std::vector<bender::Inst> body;
    for (const bender::Inst &inst : p.insts())
        if (inst.op == bender::Op::Act || inst.op == bender::Op::Pre)
            body.push_back(inst);
    return body;
}

void
runBody(Device &dev, const std::vector<bender::Inst> &body, Time &t)
{
    for (const bender::Inst &inst : body) {
        t += inst.gap;
        if (inst.op == bender::Op::Act)
            dev.act(t, inst.bank, inst.row);
        else
            dev.pre(t, inst.bank);
    }
}

/**
 * One fast-pathed loop of `trips` iterations, driven the way the
 * executor drives it: two warm-up iterations, one recorded, the rest
 * replayed and their duration skipped.  Returns the replayed count.
 */
std::uint64_t
fastPathPass(Device &dev, const std::vector<bender::Inst> &body,
             std::uint64_t trips, Time &t)
{
    runBody(dev, body, t);
    runBody(dev, body, t);
    const Time rec_start = t;
    dev.beginLoopRecording();
    runBody(dev, body, t);
    const Device::LoopRecord &rec = dev.endLoopRecording();
    const Time per_iter = t - rec_start;
    const std::uint64_t replayed = dev.replayLoopIterations(rec, trips - 3);
    const Time skipped = per_iter * static_cast<Time>(replayed);
    dev.shiftLoopTimestamps(rec_start, skipped);
    t += skipped;
    return replayed;
}

TEST(ZeroAlloc, WarmRecordedReplayedPassAllocatesNothing)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 5);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    Device dev(cfg);
    hammer::PatternTimings pt;
    pt.base = cfg.timings;

    struct Case
    {
        std::string name;
        bender::Program program;
    };
    const std::vector<Case> cases = {
        {"rh", hammer::doubleSidedRowHammer(0, dev.toLogical(20),
                                            dev.toLogical(22), 5000,
                                            pt)},
        {"comra", hammer::comraHammer(0, dev.toLogical(40),
                                      dev.toLogical(42), 5000, pt)},
        // Physical rows 8 and 15 differ in three bits: an 8-row group.
        {"simra8", hammer::simraHammer(0, dev.toLogical(8),
                                       dev.toLogical(15), 5000, pt)},
    };

    Time t = 0;
    for (const Case &c : cases) {
        const std::vector<bender::Inst> body = loopBody(c.program);
        ASSERT_EQ(body.size(), 4u) << c.name;
        // Warm up rows, buffers and the fold's index.  Two passes: the
        // fold and the loop record swap damage buffers, so each of the
        // two grows once.
        fastPathPass(dev, body, 5000, t);
        fastPathPass(dev, body, 5000, t);

        const std::size_t before = gNewCalls;
        const std::uint64_t replayed = fastPathPass(dev, body, 5000, t);
        const std::size_t allocations = gNewCalls - before;
        EXPECT_EQ(replayed, 4997u) << c.name;
        EXPECT_EQ(allocations, 0u) << c.name;
    }
    EXPECT_GT(dev.counters().simraOps, 0u);
    EXPECT_GT(dev.counters().comraCopies, 0u);
}

/**
 * The live path: the same bodies run naively, as under a mitigation
 * hook, where every close goes through the close memo.  Once the memo
 * holds the bodies' closes, a pass allocates nothing.
 */
TEST(ZeroAlloc, WarmLivePassAllocatesNothing)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 5);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    Device dev(cfg);
    hammer::PatternTimings pt;
    pt.base = cfg.timings;

    struct Case
    {
        std::string name;
        bender::Program program;
    };
    const std::vector<Case> cases = {
        {"rh", hammer::doubleSidedRowHammer(0, dev.toLogical(20),
                                            dev.toLogical(22), 100, pt)},
        {"comra", hammer::comraHammer(0, dev.toLogical(40),
                                      dev.toLogical(42), 100, pt)},
        {"simra8", hammer::simraHammer(0, dev.toLogical(8),
                                       dev.toLogical(15), 100, pt)},
    };

    // The memo's hit counter shows the measured passes hit it.
    obs::metrics().setEnabled(true);
    auto memo_hits = [] {
        for (const auto &c : obs::metrics().snapshot().counters)
            if (c.name == "device.close_memo_hits")
                return c.value;
        return std::uint64_t{0};
    };

    Time t = 0;
    for (const Case &c : cases) {
        const std::vector<bender::Inst> body = loopBody(c.program);
        ASSERT_EQ(body.size(), 4u) << c.name;
        for (int i = 0; i < 50; ++i)
            runBody(dev, body, t);

        const std::uint64_t hits_before = memo_hits();
        const std::size_t before = gNewCalls;
        for (int i = 0; i < 50; ++i)
            runBody(dev, body, t);
        const std::size_t allocations = gNewCalls - before;
        EXPECT_EQ(allocations, 0u) << c.name;
        EXPECT_GE(memo_hits() - hits_before, 50u) << c.name;
    }
    obs::metrics().setEnabled(false);
    EXPECT_GT(dev.counters().simraOps, 0u);
    EXPECT_GT(dev.counters().comraCopies, 0u);
}

/**
 * A fleet-style HC_first probe: host writes of the victim's and its
 * aggressors' data -- identical to the previous probe's -- then a
 * fast-pathed RowHammer loop.  The rewrites keep the close memo, so a
 * warm probe's live closes hit it, and the probe allocates nothing.
 */
TEST(ZeroAlloc, WarmIdenticalRewriteProbeAllocatesNothing)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 5);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    Device dev(cfg);
    hammer::PatternTimings pt;
    pt.base = cfg.timings;
    const RowId a1 = dev.toLogical(20), v = dev.toLogical(21),
                a2 = dev.toLogical(22);
    const std::vector<bender::Inst> body = loopBody(
        hammer::doubleSidedRowHammer(0, a1, a2, 1000, pt));
    ASSERT_EQ(body.size(), 4u);
    const RowData victim_data(cfg.cols, DataPattern::P55);
    const RowData aggr_data(cfg.cols, DataPattern::PAA);

    obs::metrics().setEnabled(true);
    auto memo_hits = [] {
        for (const auto &c : obs::metrics().snapshot().counters)
            if (c.name == "device.close_memo_hits")
                return c.value;
        return std::uint64_t{0};
    };
    Time t = 0;
    auto probe = [&] {
        dev.writeRowDirect(0, a1, aggr_data);
        dev.writeRowDirect(0, v, victim_data);
        dev.writeRowDirect(0, a2, aggr_data);
        return fastPathPass(dev, body, 1000, t);
    };
    for (int i = 0; i < 3; ++i)
        probe();

    const std::uint64_t hits_before = memo_hits();
    const std::size_t before = gNewCalls;
    const std::uint64_t replayed = probe();
    const std::size_t allocations = gNewCalls - before;
    // All six live closes (three iterations of two) come from the memo.
    EXPECT_EQ(memo_hits() - hits_before, 6u);
    obs::metrics().setEnabled(false);
    EXPECT_EQ(replayed, 997u);
    EXPECT_EQ(allocations, 0u);
}

/**
 * HC_first probes through the executor: identical host rewrites, then
 * the same-shape program at a new trip count.  From the second probe
 * on, the loop's prefix comes from the executor's prefix log, and a
 * warm probe that applies it allocates nothing.
 */
TEST(ZeroAlloc, WarmProbeReusingThePrefixLogAllocatesNothing)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 5);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    bender::TestBench bench(cfg);
    Device &dev = bench.device();
    hammer::PatternTimings pt;
    pt.base = cfg.timings;
    const RowId a1 = dev.toLogical(20), v = dev.toLogical(21),
                a2 = dev.toLogical(22);
    const bender::Program base =
        hammer::doubleSidedRowHammer(0, a1, a2, 1, pt);
    std::vector<bender::Program> probes;
    for (std::uint64_t n : {512, 1024, 768, 896, 832, 864})
        probes.push_back(base.withLoopCount(0, n));
    const RowData victim_data(cfg.cols, DataPattern::P55);
    const RowData aggr_data(cfg.cols, DataPattern::PAA);

    auto probe = [&](const bender::Program &p) {
        dev.writeRowDirect(0, a1, aggr_data);
        dev.writeRowDirect(0, v, victim_data);
        dev.writeRowDirect(0, a2, aggr_data);
        bench.run(p);
    };
    for (std::size_t i = 0; i + 1 < probes.size(); ++i)
        probe(probes[i]);

    const std::uint64_t reuses = bench.executor().stats().prefixReuses;
    const std::size_t before = gNewCalls;
    probe(probes.back());
    const std::size_t allocations = gNewCalls - before;
    EXPECT_EQ(bench.executor().stats().prefixReuses - reuses, 1u);
    EXPECT_EQ(allocations, 0u);
}

/**
 * A Fig-24 loop on a TRR device with a PARA hook whose coins never
 * fire: it cannot replay, so it runs segment by segment.  Once a run
 * has grown every buffer, a run that fills and applies its segment
 * logs -- the hook's preview included -- allocates nothing.
 */
TEST(ZeroAlloc, WarmSegmentApplyAllocatesNothing)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 5);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    bender::TestBench bench(cfg);
    Device &dev = bench.device();
    mitigation::ParaConfig pcfg;
    pcfg.probability = 1e-12;
    mitigation::ParaMitigation para(pcfg, cfg.rowsPerSubarray);
    dev.setTrrEnabled(true);
    dev.setMitigation(&para);
    hammer::PatternTimings pt;
    pt.base = cfg.timings;
    const bender::Program program = hammer::trrBypassPattern(
        0, {dev.toLogical(20), dev.toLogical(22)}, dev.toLogical(4), false,
        64, pt, 156);
    bench.run(program);

    const std::uint64_t applies = bench.executor().stats().segmentApplies;
    const std::size_t before = gNewCalls;
    bench.run(program);
    const std::size_t allocations = gNewCalls - before;
    dev.setMitigation(nullptr);
    EXPECT_GT(bench.executor().stats().segmentApplies - applies, 200u);
    EXPECT_EQ(allocations, 0u);
}

TEST(ZeroAlloc, WarmPhaseBreakAllocatesNothing)
{
    // With TRR off a REF-bearing loop replays, and a stripe refresh
    // every REF keeps landing on its rows: every phase break re-records
    // the loop, and its live iterations re-apply segment logs.
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 5);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.timings.refsPerWindow = 128;
    bender::TestBench bench(cfg);
    Device &dev = bench.device();
    hammer::PatternTimings pt;
    pt.base = cfg.timings;
    const bender::Program program = hammer::trrBypassPattern(
        0, {dev.toLogical(20), dev.toLogical(22)}, dev.toLogical(4), false,
        400, pt, 156);
    bench.run(program);

    const bender::ExecStats warm = bench.executor().stats();
    const std::size_t before = gNewCalls;
    bench.run(program);
    const std::size_t allocations = gNewCalls - before;
    const bender::ExecStats &stats = bench.executor().stats();
    EXPECT_GT(stats.phaseBreaks - warm.phaseBreaks, 10u);
    EXPECT_GT(stats.segmentApplies - warm.segmentApplies, 100u);
    EXPECT_EQ(allocations, 0u);
}

} // namespace
