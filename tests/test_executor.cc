/**
 * @file
 * Unit tests for the bender program builder and executor, including
 * the exactness of the loop fast-path against naive execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bender/host.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzz.h"
#include "hammer/experiment.h"
#include "hammer/hcfirst.h"
#include "hammer/patterns.h"
#include "hammer/tester.h"
#include "mitigation/countermeasures.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/saturate.h"

namespace {

using namespace pud;
using namespace pud::bender;
using namespace pud::dram;

DeviceConfig
smallConfig(std::uint64_t seed = 1)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", seed);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    return cfg;
}

TEST(Program, BuilderTracksLoopBalance)
{
    Program p;
    EXPECT_TRUE(p.balanced());
    p.loopBegin(10);
    EXPECT_FALSE(p.balanced());
    p.act(0, 1, 100).pre(0, 100);
    p.loopEnd();
    EXPECT_TRUE(p.balanced());
}

TEST(Program, LoopEndWithoutBeginIsFatal)
{
    Program p;
    EXPECT_DEATH(p.loopEnd(), "loopEnd without loopBegin");
}

TEST(Program, WrWithDanglingDataIndexIsFatal)
{
    Program p;
    // Empty data table: every index is out of range.
    EXPECT_DEATH(p.wr(0, 0, 100), "outside the data table");
    EXPECT_DEATH(p.wr(0, -1, 100), "outside the data table");
    p.addData(dram::RowData(8));
    p.wr(0, 0, 100);  // now in range
    EXPECT_DEATH(p.wr(0, 1, 100), "outside the data table");
}

TEST(Program, WrUncheckedBypassesTheBuildTimeCheck)
{
    // The escape hatch exists so tests and demo programs can build
    // intentionally-broken instructions for lint to catch.
    Program p;
    p.wrUnchecked(0, 7, 100);
    ASSERT_EQ(p.insts().size(), 1u);
    EXPECT_EQ(p.insts()[0].dataIndex, 7);
}

TEST(Program, WithLoopCountCopiesWithoutMutating)
{
    Program p;
    p.loopBegin(1).act(0, 1, 10).pre(0, 20).loopEnd();
    EXPECT_EQ(p.loopCount(), 1u);
    const Program q = p.withLoopCount(0, 500);
    EXPECT_EQ(p.insts()[0].count, 1u);
    EXPECT_EQ(q.insts()[0].count, 500u);
    EXPECT_EQ(q.insts().size(), p.insts().size());
}

TEST(Program, SetLoopCountPatchesTheRightLoop)
{
    Program p;
    p.loopBegin(1).act(0, 1, 10).loopEnd();
    p.loopBegin(2).act(0, 2, 10).loopEnd();
    p.setLoopCount(1, 99);
    int seen = 0;
    for (const auto &inst : p.insts()) {
        if (inst.op == Op::LoopBegin) {
            EXPECT_EQ(inst.count, ++seen == 1 ? 1u : 99u);
        }
    }
    EXPECT_DEATH(p.setLoopCount(5, 1), "no loop");
}

// ---- the loop tree ----------------------------------------------------

constexpr std::size_t npos = Program::npos;

/**
 * The loop tree as a scan of the finished program sees it: each
 * LoopBegin's LoopEnd by depth counting, and each body classified by
 * rescanning it (RD anywhere is Naive; otherwise REF or a nested loop
 * is Recorded).
 */
std::vector<LoopNode>
referenceLoops(const Program &p)
{
    const auto &insts = p.insts();
    std::vector<LoopNode> out;
    for (std::size_t b = 0; b < insts.size(); ++b) {
        if (insts[b].op != Op::LoopBegin)
            continue;
        LoopNode loop{b, npos, npos, 0, BodyClass::Simple};
        int depth = 0;
        for (std::size_t i = b; i < insts.size(); ++i) {
            if (insts[i].op == Op::LoopBegin)
                ++depth;
            else if (insts[i].op == Op::LoopEnd && --depth == 0) {
                loop.end = i;
                break;
            }
        }
        bool recorded = false;
        for (std::size_t i = b + 1; i < std::min(loop.end, insts.size());
             ++i) {
            if (insts[i].op == Op::Rd) {
                loop.cls = BodyClass::Naive;
                break;
            }
            recorded |= insts[i].op == Op::Ref ||
                        insts[i].op == Op::LoopBegin ||
                        insts[i].op == Op::LoopEnd;
        }
        if (loop.cls != BodyClass::Naive && recorded)
            loop.cls = BodyClass::Recorded;
        out.push_back(loop);
    }
    auto contains = [&](const LoopNode &outer, std::size_t i) {
        return outer.begin < i && i < std::min(outer.end, insts.size());
    };
    for (std::size_t id = 0; id < out.size(); ++id) {
        for (std::size_t a = id; a-- > 0;) {
            if (contains(out[a], out[id].begin)) {
                out[id].parent = a;
                break;
            }
        }
        out[id].next = id + 1;
        while (out[id].next < out.size() &&
               contains(out[id], out[out[id].next].begin))
            ++out[id].next;
    }
    return out;
}

/** Random program: nested loops, RD/REF anywhere, maybe unclosed. */
Program
randomLoopProgram(Rng &rng)
{
    Program p;
    int open = 0;
    const std::uint64_t n = 1 + rng.below(30);
    for (std::uint64_t k = 0; k < n; ++k) {
        switch (rng.below(8)) {
          case 0:
            p.rd(0, 10);
            break;
          case 1:
            p.ref(10);
            break;
          case 2:
          case 3:
            p.loopBegin(rng.below(20));
            ++open;
            break;
          case 4:
          case 5:
            if (open > 0) {
                p.loopEnd();
                --open;
            }
            break;
          default:
            p.act(0, static_cast<RowId>(rng.below(64)), 10).pre(0, 10);
            break;
        }
    }
    if (rng.below(2) == 0)
        for (; open > 0; --open)
            p.loopEnd();
    return p;
}

TEST(Program, LoopTreeMatchesADepthScan)
{
    Rng rng(16);
    for (int trial = 0; trial < 2000; ++trial) {
        const Program p = randomLoopProgram(rng);
        const std::vector<LoopNode> want = referenceLoops(p);
        ASSERT_EQ(p.loops().size(), want.size());
        ASSERT_EQ(p.loopCount(), want.size());
        for (std::size_t id = 0; id < want.size(); ++id) {
            const LoopNode &got = p.loops()[id];
            EXPECT_EQ(got.begin, want[id].begin) << "trial " << trial;
            EXPECT_EQ(got.end, want[id].end) << "trial " << trial;
            EXPECT_EQ(got.parent, want[id].parent) << "trial " << trial;
            EXPECT_EQ(got.next, want[id].next) << "trial " << trial;
            EXPECT_EQ(got.cls, want[id].cls) << "trial " << trial;
        }
        EXPECT_EQ(p.balanced(),
                  std::none_of(want.begin(), want.end(),
                               [](const LoopNode &l) {
                                   return l.end == npos;
                               }));

        // forEachInBody visits exactly the commands and loops directly
        // inside each body, in program order.
        for (std::size_t id = npos; id == npos || id < want.size(); ++id) {
            const std::size_t b = id == npos ? 0 : want[id].begin + 1;
            const std::size_t e = id == npos || want[id].end == npos
                                      ? p.insts().size()
                                      : want[id].end;
            std::vector<std::size_t> want_insts, got_insts;
            std::vector<std::size_t> want_loops, got_loops;
            for (std::size_t i = b; i < e; ++i) {
                const Op op = p.insts()[i].op;
                std::size_t owner = npos;
                for (std::size_t l = 0; l < want.size(); ++l)
                    if (want[l].begin < i &&
                        i <= std::min(want[l].end, p.insts().size()))
                        owner = l;  // innermost: the last containing
                if (op == Op::LoopBegin) {
                    const std::size_t l = static_cast<std::size_t>(
                        std::find_if(want.begin(), want.end(),
                                     [&](const LoopNode &n) {
                                         return n.begin == i;
                                     }) -
                        want.begin());
                    if (want[l].parent == id)
                        want_loops.push_back(l);
                } else if (op != Op::LoopEnd && owner == id) {
                    want_insts.push_back(i);
                }
            }
            p.forEachInBody(
                id, [&](std::size_t i) { got_insts.push_back(i); },
                [&](std::size_t l) { got_loops.push_back(l); });
            EXPECT_EQ(got_insts, want_insts) << "trial " << trial;
            EXPECT_EQ(got_loops, want_loops) << "trial " << trial;
        }
    }
}

TEST(Program, WithLoopCountCopiesTheLoopTree)
{
    Program p;
    p.loopBegin(3).loopBegin(4).rd(0, 10).loopEnd().loopEnd();
    const Program q = p.withLoopCount(1, 9);
    ASSERT_EQ(q.loops().size(), 2u);
    EXPECT_EQ(q.insts()[q.loops()[1].begin].count, 9u);
    EXPECT_EQ(q.loops()[0].cls, BodyClass::Naive);
    EXPECT_EQ(q.loops()[0].next, 2u);
}

TEST(RunCosts, RunCostsSaturate)
{
    Program p;
    p.loopBegin(2)
        .loopBegin(1ULL << 50)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd()
        .loopEnd();
    RunCosts costs;
    costs.compute(p);
    EXPECT_EQ(costs.loops[1].duration, units::fromNs(51));
    EXPECT_EQ(costs.loops[0].duration, kMaxTime);
    EXPECT_EQ(costs.total.duration, kMaxTime);
}

TEST(RunCosts, RunCostsTotalIsTheExecutedDuration)
{
    Program p;
    p.nop(units::fromNs(5));
    p.loopBegin(3)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopBegin(9)
        .act(0, 3, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd()
        .nop(units::fromNs(7))
        .loopEnd();
    Device dev(smallConfig());
    Executor ex(dev);
    const ExecResult r = ex.run(p);
    RunCosts costs;
    costs.compute(p);
    EXPECT_EQ(costs.total.duration, r.endTime - r.startTime);
}

TEST(Executor, ProgramPastTheClockRangeIsFatal)
{
    Device dev(smallConfig());
    Executor ex(dev);
    ex.setPreflight(false);
    const Program p = hammer::doubleSidedRowHammer(
        0, 10, 12, 4000000000000000000ULL, hammer::PatternTimings{});
    EXPECT_DEATH(ex.run(p), "past the end of its range");

    // Each run fits in Time on its own, but the second would carry
    // the clock past the end.  (The trailing ACT/PRE moves the device
    // clock past the replayed iterations.)
    Program half = hammer::doubleSidedRowHammer(
        0, 10, 12, 50000000000000ULL, hammer::PatternTimings{});
    half.act(0, 20, units::fromNs(15)).pre(0, units::fromNs(36));
    ex.run(half);
    EXPECT_DEATH(ex.run(half), "past the end of its range");
}

TEST(Executor, UnbalancedProgramIsFatal)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(3).act(0, 1, 100);
    EXPECT_DEATH(ex.run(p), "unbalanced");
}

TEST(Executor, CollectsReads)
{
    TestBench bench(smallConfig());
    const RowData d(256, DataPattern::PAA);
    bench.writeRow(0, 5, d);
    Program p;
    p.act(0, 5, units::fromNs(15)).rd(0, units::fromNs(15))
        .pre(0, units::fromNs(36));
    const auto result = bench.run(p);
    ASSERT_EQ(result.reads.size(), 1u);
    EXPECT_EQ(result.reads[0], d);
}

TEST(Executor, TimeAdvancesByGapSum)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.act(0, 1, units::fromNs(100)).pre(0, units::fromNs(50));
    const auto r = ex.run(p);
    EXPECT_EQ(r.endTime - r.startTime, units::fromNs(150));
}

TEST(Executor, LoopTimeScalesWithTripCount)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(1000)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    const auto r = ex.run(p);
    EXPECT_EQ(r.endTime - r.startTime, 1000 * units::fromNs(51));
    EXPECT_GT(r.fastPathIterations, 0u);
}

TEST(Executor, FastPathReplaysRefLoops)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(20).ref(units::fromNs(7800)).loopEnd();
    const auto r = ex.run(p);
    // 2 warm-ups + 1 recorded iteration run live; the remaining 17
    // replay arithmetically -- with the refresh counter still
    // advancing exactly as if each REF had issued.
    EXPECT_EQ(r.fastPathIterations, 17u);
    EXPECT_EQ(dev.counters().refs, 20u);
}

TEST(Executor, FastPathEngagesExactlyAtThreshold)
{
    const std::uint64_t trips[] = {1, 2, 3, 7, 8, 9};
    for (std::uint64_t n : trips) {
        Device dev(smallConfig());
        Executor ex(dev);
        Program p;
        p.loopBegin(n)
            .act(0, 1, units::fromNs(15))
            .pre(0, units::fromNs(36))
            .loopEnd();
        const auto r = ex.run(p);
        if (n >= Executor::kFastPathThreshold)
            EXPECT_EQ(r.fastPathIterations, n - 3) << "n=" << n;
        else
            EXPECT_EQ(r.fastPathIterations, 0u) << "n=" << n;
        // Trip-count-exact command counters and duration either way.
        EXPECT_EQ(dev.counters().acts, n) << "n=" << n;
        EXPECT_EQ(dev.counters().pres, n) << "n=" << n;
        EXPECT_EQ(r.endTime - r.startTime, n * units::fromNs(51))
            << "n=" << n;
    }
}

TEST(Executor, PlanCacheSharedAcrossTripCounts)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program base;
    base.loopBegin(1)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    const std::uint64_t probes[] = {10, 100, 1000, 50, 17};
    for (std::uint64_t n : probes)
        ex.run(base.withLoopCount(0, n));
    // All five probes share one shape: one compile, four cache hits.
    EXPECT_EQ(ex.stats().planCacheMisses, 1u);
    EXPECT_EQ(ex.stats().planCacheHits, 4u);

    Program other;
    other.loopBegin(10)
        .act(0, 2, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    ex.run(other);
    EXPECT_EQ(ex.stats().planCacheMisses, 2u);
}

TEST(Executor, PrefixLogFollowsTheLastRunsShape)
{
    Device dev(smallConfig());
    Executor ex(dev);
    const hammer::PatternTimings t;
    const Program a = hammer::doubleSidedRowHammer(0, 10, 12, 1000, t);
    const Program b = hammer::doubleSidedRowHammer(0, 30, 32, 1000, t);
    const RowData data(dev.config().cols, DataPattern::P55);
    auto run = [&](const Program &p) {
        // Fresh rows around both patterns, as an HC_first probe writes.
        for (RowId r = 8; r <= 34; ++r)
            dev.writeRowDirect(0, r, data);
        ex.run(p);
    };

    // A shape's first run logs nothing, its second fills the loop's
    // log and its third applies it.
    run(a);
    EXPECT_EQ(ex.stats().prefixFills, 0u);
    run(a);
    EXPECT_EQ(ex.stats().prefixFills, 1u);
    EXPECT_EQ(ex.stats().prefixReuses, 0u);
    run(a);
    EXPECT_EQ(ex.stats().prefixFills, 1u);
    EXPECT_EQ(ex.stats().prefixReuses, 1u);

    // A run of another shape in between makes A's next run a first run.
    ex.reset();
    run(a);
    run(b);
    run(a);
    EXPECT_EQ(ex.stats().planCacheMisses, 3u);
    EXPECT_EQ(ex.stats().prefixFills, 0u);
    EXPECT_EQ(ex.stats().prefixReuses, 0u);
}

TEST(Executor, ReplayCountsTrrEvictionsLikeNaive)
{
    auto evictions = [](bool fast) {
        auto counter = [] {
            for (const auto &c : obs::metrics().snapshot().counters)
                if (c.name == "device.trr_evictions")
                    return c.value;
            return std::uint64_t{0};
        };
        Device dev(smallConfig());
        Executor ex(dev);
        ex.setFastPath(fast);
        obs::metrics().setEnabled(true);
        const std::uint64_t before = counter();
        const ExecResult r = ex.run(hammer::doubleSidedRowHammer(
            0, 10, 12, 2000, hammer::PatternTimings{}));
        const std::uint64_t evicted = counter() - before;
        obs::metrics().setEnabled(false);
        EXPECT_EQ(r.fastPathIterations > 0, fast);
        return evicted;
    };
    // 4000 sampler pushes into a 450-entry ring.
    EXPECT_EQ(evictions(false), 3550u);
    EXPECT_EQ(evictions(true), 3550u);
}

TEST(Executor, NestedLoopsExecute)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(3);
    p.loopBegin(4)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    p.loopEnd();
    ex.run(p);
    EXPECT_EQ(dev.counters().acts, 12u);
}

/**
 * The critical property: fast-path execution must produce the same
 * victim bitflips as naive execution for every pattern class.
 */
class FastPathEquivalence : public ::testing::TestWithParam<int>
{};

TEST_P(FastPathEquivalence, MatchesNaiveExecution)
{
    const int pattern_kind = GetParam();
    constexpr std::uint64_t kHammers = 4000;

    auto run = [&](bool fast) {
        TestBench bench(smallConfig(7));
        bench.executor().setFastPath(fast);
        dram::Device &dev = bench.device();

        const RowId victim = 33;
        const RowData aggr(256, DataPattern::P55);
        const RowData vict(256, DataPattern::PAA);
        for (RowId r = 28; r <= 38; ++r)
            bench.writeRow(0, dev.toLogical(r),
                           r == victim ? vict : aggr);

        hammer::PatternTimings t;
        Program p;
        switch (pattern_kind) {
          case 0:
            p = hammer::doubleSidedRowHammer(
                0, dev.toLogical(32), dev.toLogical(34), kHammers, t);
            break;
          case 1:
            p = hammer::singleSidedRowHammer(0, dev.toLogical(32),
                                             kHammers, t);
            break;
          case 2:
            p = hammer::comraHammer(0, dev.toLogical(32),
                                    dev.toLogical(34), kHammers, t);
            break;
          case 3:
            p = hammer::simraHammer(0, dev.toLogical(32),
                                    dev.toLogical(38), kHammers, t);
            break;
          default:
            t.tAggOn = units::fromNs(7800);
            p = hammer::doubleSidedRowHammer(
                0, dev.toLogical(32), dev.toLogical(34), kHammers, t);
        }
        bench.run(p);

        // Compare the damage of every cell in the neighbourhood, and
        // the TRR sampler ring the run left behind.
        std::vector<float> damage;
        for (RowId r = 28; r <= 38; ++r)
            for (const auto &cell :
                 dev.weakCells(0, dev.toLogical(r)))
                damage.push_back(cell.totalDamage());
        return std::make_pair(damage, dev.trrSamplerRows(0));
    };

    const auto [fast, fast_ring] = run(true);
    const auto [naive, naive_ring] = run(false);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], naive[i],
                    1e-4f + 0.002f * std::abs(naive[i]))
            << "cell " << i;
    }
    EXPECT_EQ(fast_ring, naive_ring);
}

INSTANTIATE_TEST_SUITE_P(Patterns, FastPathEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4));

/** Whether two values agree bit for bit (floats included). */
template <class T>
bool
sameBits(const T &x, const T &y)
{
    return std::memcmp(&x, &y, sizeof(T)) == 0;
}

/**
 * Compare two devices bit for bit, without materializing any row:
 * the rows each has drawn, with their data, damage, side state and
 * close stamps; the counters; the TRR rings; both RNG streams; and
 * the clock.
 */
void
expectSameDevice(const Device &a, const Device &b)
{
    ASSERT_EQ(a.populatedRowCount(), b.populatedRowCount());
    const DeviceCounters &ca = a.counters(), &cb = b.counters();
    EXPECT_TRUE(ca.acts == cb.acts && ca.pres == cb.pres &&
                ca.refs == cb.refs && ca.comraCopies == cb.comraCopies &&
                ca.simraOps == cb.simraOps &&
                ca.ignoredCommands == cb.ignoredCommands &&
                ca.trrRefreshes == cb.trrRefreshes);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_TRUE(a.trrRng() == b.trrRng());
    EXPECT_TRUE(a.noiseRng() == b.noiseRng());
    const DeviceConfig &cfg = a.config();
    for (BankId bank = 0; bank < cfg.banks; ++bank) {
        EXPECT_EQ(a.trrSamplerFill(bank), b.trrSamplerFill(bank));
        EXPECT_EQ(a.trrSamplerRows(bank), b.trrSamplerRows(bank));
        for (RowId r = 0; r < cfg.rowsPerBank(); ++r) {
            ASSERT_EQ(a.populated(bank, r), b.populated(bank, r));
            EXPECT_EQ(a.lastCloseAt(bank, r), b.lastCloseAt(bank, r))
                << "row " << r;
            EXPECT_EQ(a.lastSide(bank, r), b.lastSide(bank, r))
                << "row " << r;
            if (!a.populated(bank, r))
                continue;
            EXPECT_TRUE(a.readRowDirect(bank, r) == b.readRowDirect(bank, r))
                << "row " << r;
            const auto &wa = a.weakCells(bank, r), &wb = b.weakCells(bank, r);
            for (std::size_t i = 0; i < wa.size(); ++i)
                EXPECT_TRUE(sameBits(wa[i].damage, wb[i].damage))
                    << "row " << r << " cell " << i;
        }
    }
}

/** Everything observable after a REF-interleaved hammering run. */
struct RunState
{
    std::uint64_t flips = 0;
    std::size_t samplerFill = 0;
    std::vector<RowId> samplerRows;  //!< bank 0's ring, oldest first
    DeviceCounters counters;
    Time duration = 0;
    RowData victimData;
    std::vector<float> damage;
};

/**
 * Run a REF-interleaved double-sided pattern, then probe the TRR
 * sampler ring: enable TRR and fire one REF, whose victim refresh
 * draws from the ring the pattern left behind.  Identical ring
 * contents, position, and RNG state are the only way the probe can
 * behave identically across executor modes.
 */
RunState
runRefInterleaved(bool fast, bool trr, std::uint64_t hammers,
                  const DeviceConfig &cfg, int refs_before = 0)
{
    TestBench bench(cfg);
    bench.executor().setFastPath(fast);
    dram::Device &dev = bench.device();
    dev.setTrrEnabled(trr);
    // Start the stripe rotation `refs_before` slots in.
    Program lead;
    for (int i = 0; i < refs_before; ++i)
        lead.ref(units::fromNs(500));
    bench.run(lead);

    const RowId victim = 33;
    const RowData aggr(cfg.cols, DataPattern::P55);
    const RowData vict(cfg.cols, DataPattern::PAA);
    for (RowId r = 30; r <= 36; ++r)
        bench.writeRow(0, dev.toLogical(r), r == victim ? vict : aggr);

    hammer::PatternTimings t;
    t.base = cfg.timings;
    const Program p = hammer::withRefInterleave(
        hammer::doubleSidedRowHammer(0, dev.toLogical(32),
                                     dev.toLogical(34), hammers, t),
        t.base);
    const auto result = bench.run(p);

    dev.setTrrEnabled(true);
    Program probe;
    probe.ref(units::fromNs(500));
    bench.run(probe);

    RunState s;
    s.flips = bench.countBitflips(0, dev.toLogical(victim), vict);
    s.samplerFill = dev.trrSamplerFill(0);
    s.samplerRows = dev.trrSamplerRows(0);
    s.counters = dev.counters();
    s.duration = result.endTime - result.startTime;
    s.victimData = dev.readRowDirect(0, dev.toLogical(victim));
    for (RowId r = 30; r <= 36; ++r)
        for (const auto &cell : dev.weakCells(0, dev.toLogical(r)))
            s.damage.push_back(cell.totalDamage());
    return s;
}

void
expectSameRun(const RunState &fast, const RunState &naive)
{
    EXPECT_EQ(fast.flips, naive.flips);
    EXPECT_EQ(fast.samplerFill, naive.samplerFill);
    EXPECT_EQ(fast.samplerRows, naive.samplerRows);
    EXPECT_EQ(fast.duration, naive.duration);
    EXPECT_TRUE(fast.victimData == naive.victimData);
    EXPECT_EQ(fast.counters.acts, naive.counters.acts);
    EXPECT_EQ(fast.counters.pres, naive.counters.pres);
    EXPECT_EQ(fast.counters.refs, naive.counters.refs);
    EXPECT_EQ(fast.counters.trrRefreshes, naive.counters.trrRefreshes);
    ASSERT_EQ(fast.damage.size(), naive.damage.size());
    for (std::size_t i = 0; i < fast.damage.size(); ++i) {
        EXPECT_NEAR(fast.damage[i], naive.damage[i],
                    1e-4f + 0.002f * std::abs(naive.damage[i]))
            << "cell " << i;
    }
}

/** {TRR enabled during the pattern, hammer count}. */
class RefFastPathEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(RefFastPathEquivalence, MatchesNaiveExecution)
{
    const bool trr = std::get<0>(GetParam());
    const std::uint64_t hammers = std::get<1>(GetParam());
    const DeviceConfig cfg = smallConfig(11);
    expectSameRun(runRefInterleaved(true, trr, hammers, cfg),
                  runRefInterleaved(false, trr, hammers, cfg));
}

// Hammer counts chosen to cover a partially-filled sampler ring (100
// iterations push 200 ACTs < the 450-entry window) and a saturated,
// wrapped one; each with the pattern running TRR-off (replay, with
// phase breaks where a stripe refresh would hit the hammered rows)
// and TRR-on (the REF-bearing loop runs live).
INSTANTIATE_TEST_SUITE_P(
    TrrAndScale, RefFastPathEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(100u, 4000u)));

TEST(Executor, TrrRefLoopRunsLive)
{
    // With TRR on, a REF-bearing loop never replays, even when no
    // refresh of its recorded iteration hits the loop's rows: here a
    // prelude of ACTs to far rows fills the sampler ring, so the
    // recorded REF's TRR draw lands on an untracked row.  Device::ref
    // alone applies sampling TRR, so the fast path leaves the device
    // exactly as naive execution does.
    auto run = [](TestBench &bench, bool fast) {
        bench.executor().setFastPath(fast);
        Device &dev = bench.device();
        dev.setTrrEnabled(true);
        const TimingParams &tm = dev.config().timings;
        hammer::PatternTimings t;
        Program p;
        for (std::size_t i = 0; i < Device::kTrrWindow; ++i)
            p.act(0, dev.toLogical(static_cast<RowId>(80 + i % 40)),
                  tm.tRP)
                .pre(0, t.aggOn());
        p.loopBegin(300)
            .act(0, dev.toLogical(32), tm.tRFC)
            .pre(0, t.aggOn())
            .act(0, dev.toLogical(34), tm.tRP)
            .pre(0, t.aggOn())
            .ref(tm.tRP)
            .loopEnd();
        return bench.run(p);
    };
    TestBench fast(smallConfig(11)), naive(smallConfig(11));
    EXPECT_EQ(run(fast, true).fastPathIterations, 0u);
    run(naive, false);
    expectSameDevice(fast.device(), naive.device());
}

/** {ACTs per iteration, trip count, ACTs before the loop}. */
class SamplerRingReplay
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(SamplerRingReplay, MatchesNaiveExecution)
{
    // Replay advances the TRR ring closed-form; it must hold exactly
    // the rows, in the order, that naive execution pushes.
    const auto [period, trips, prelude] = GetParam();
    auto run = [&](bool fast) {
        TestBench bench(smallConfig(23));
        bench.executor().setFastPath(fast);
        dram::Device &dev = bench.device();
        hammer::PatternTimings t;
        Program p;
        for (int i = 0; i < prelude; ++i)
            p.act(0, 100 + i, t.base.tRP).pre(0, t.aggOn());
        p.loopBegin(trips);
        for (int i = 0; i < period; ++i)
            p.act(0, 8 + 11 * i, t.base.tRP).pre(0, t.aggOn());
        p.loopEnd();
        bench.run(p);
        EXPECT_EQ(bench.executor().stats().fastPathIterations > 0, fast);
        return std::make_pair(dev.trrSamplerFill(0),
                              dev.trrSamplerRows(0));
    };
    const auto fast = run(true);
    const auto naive = run(false);
    EXPECT_EQ(fast.first, naive.first);
    EXPECT_EQ(fast.second.size(), fast.first);
    EXPECT_EQ(fast.second, naive.second);
}

// Period 3 leaves the ring partial (150 pushes), exactly full (450)
// and wrapped (453, and 3000 behind a prelude that offsets the write
// position); periods 4 and 7 do not divide the 450-entry window, so
// the survivors start mid-body.
INSTANTIATE_TEST_SUITE_P(
    PartialFullWrapped, SamplerRingReplay,
    ::testing::Values(std::make_tuple(3, 50, 0),
                      std::make_tuple(3, 150, 0),
                      std::make_tuple(3, 151, 0),
                      std::make_tuple(3, 1000, 5),
                      std::make_tuple(4, 1000, 5),
                      std::make_tuple(7, 300, 2)));

TEST(Executor, RefStripePhaseBreakMatchesNaive)
{
    // A dense stripe-refresh cadence (16 rows per REF) sweeps the
    // refresh pointer across the hammered neighbourhood many times per
    // run, forcing replay phase breaks and re-records.
    DeviceConfig cfg = smallConfig(13);
    cfg.timings.refsPerWindow = 8;
    expectSameRun(runRefInterleaved(true, false, 2000, cfg),
                  runRefInterleaved(false, false, 2000, cfg));
}

TEST(Executor, RefStripeCollisionAcrossWindowWrapMatchesNaive)
{
    // With TRR off, replay finds the next stripe that covers a tracked
    // row arithmetically.  Starting the rotation at every slot of a
    // short window puts that stripe before, at and past the wrap.
    DeviceConfig cfg = smallConfig(13);
    cfg.timings.refsPerWindow = 16;
    for (int offset = 0; offset < 20; ++offset) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        expectSameRun(runRefInterleaved(true, false, 2000, cfg, offset),
                      runRefInterleaved(false, false, 2000, cfg, offset));
    }
}

TEST(Executor, NestedLoopFastPathMatchesNaive)
{
    auto run = [&](bool fast) {
        TestBench bench(smallConfig(17));
        bench.executor().setFastPath(fast);
        dram::Device &dev = bench.device();

        const RowId victim = 33;
        const RowData aggr(256, DataPattern::P55);
        const RowData vict(256, DataPattern::PAA);
        for (RowId r = 30; r <= 38; ++r)
            bench.writeRow(0, dev.toLogical(r),
                           r == victim ? vict : aggr);

        hammer::PatternTimings t;
        Program p;
        p.loopBegin(50);
        p.loopBegin(64)
            .act(0, dev.toLogical(32), t.base.tRP)
            .pre(0, t.aggOn())
            .act(0, dev.toLogical(34), t.base.tRP)
            .pre(0, t.aggOn())
            .loopEnd();
        p.act(0, dev.toLogical(36), t.base.tRP)
            .pre(0, t.aggOn())
            .loopEnd();
        const auto result = bench.run(p);

        RunState s;
        s.flips = bench.countBitflips(0, dev.toLogical(victim), vict);
        s.samplerFill = dev.trrSamplerFill(0);
        s.samplerRows = dev.trrSamplerRows(0);
        s.counters = dev.counters();
        s.duration = result.endTime - result.startTime;
        s.victimData = dev.readRowDirect(0, dev.toLogical(victim));
        for (RowId r = 30; r <= 38; ++r)
            for (const auto &cell : dev.weakCells(0, dev.toLogical(r)))
                s.damage.push_back(cell.totalDamage());
        EXPECT_EQ(s.counters.acts, 50u * (64u * 2u + 1u));
        return s;
    };

    expectSameRun(run(true), run(false));
}

TEST(Executor, ReplayShiftsEveryPopulatedRowsCloseTimeLikeNaive)
{
    // Replay advances close times by walking only the rows stamped
    // since the last replay; on a lazily populated device that must
    // leave every row's lastCloseAt exactly where naive execution puts
    // it.  Rows 50 and 60 close before the loop, row 60 by the very
    // command the loop starts from, which replay must not shift.  In
    // the second program row 60 is still open when the loop starts,
    // whose first iteration closes it.
    DeviceConfig cfg = smallConfig(19);
    cfg.banks = 2;
    struct Outcome
    {
        std::vector<Time> lastClose;
        std::size_t populated = 0;
        std::uint64_t replayed = 0;
    };
    hammer::PatternTimings t;
    Program closed_first;
    closed_first.act(0, 50, t.base.tRP).pre(0, t.aggOn());
    closed_first.act(1, 60, t.base.tRP).pre(1, t.aggOn());
    closed_first.loopBegin(3000)
        .act(0, 32, t.base.tRP)
        .pre(0, t.aggOn())
        .act(0, 34, t.base.tRP)
        .pre(0, t.aggOn())
        .act(1, 10, t.base.tRP)
        .pre(1, t.aggOn())
        .loopEnd();
    closed_first.act(0, 36, t.base.tRP).pre(0, t.aggOn());
    Program open_into_loop;
    open_into_loop.act(0, 50, t.base.tRP).pre(0, t.aggOn());
    open_into_loop.act(1, 60, t.base.tRP);
    open_into_loop.loopBegin(3000)
        .pre(1, t.aggOn())
        .act(0, 32, t.base.tRP)
        .pre(0, t.aggOn())
        .act(0, 34, t.base.tRP)
        .pre(0, t.aggOn())
        .act(1, 10, t.base.tRP)
        .loopEnd();
    open_into_loop.pre(1, t.aggOn());
    open_into_loop.act(0, 36, t.base.tRP).pre(0, t.aggOn());

    auto run = [&](const Program &p, bool fast) {
        TestBench bench(cfg);
        bench.executor().setFastPath(fast);
        dram::Device &dev = bench.device();
        bench.run(p);

        Outcome o;
        for (BankId b = 0; b < cfg.banks; ++b)
            for (RowId r = 0; r < dev.rowsPerBank(); ++r)
                o.lastClose.push_back(dev.lastCloseAt(b, r));
        o.populated = dev.populatedRowCount();
        o.replayed = bench.executor().stats().fastPathIterations;
        return o;
    };

    for (const Program *p : {&closed_first, &open_into_loop}) {
        const Outcome fast = run(*p, true);
        const Outcome naive = run(*p, false);
        EXPECT_GT(fast.replayed, 0u);
        EXPECT_EQ(naive.replayed, 0u);
        EXPECT_EQ(fast.populated, naive.populated);
        EXPECT_LT(fast.populated, 2u * cfg.rowsPerBank());
        EXPECT_EQ(fast.lastClose, naive.lastClose);
        std::size_t closed = 0;
        for (Time at : fast.lastClose)
            closed += at >= 0;
        EXPECT_EQ(closed, 6u);
    }
}

TEST(Executor, ReplayShiftsCloseStampsAheadOfTheLoopStart)
{
    // A replayed loop leaves its rows' close stamps ahead of the
    // device clock, so the next program's loop starts before them.
    // That loop's replay moves them on like any stamp after its start,
    // although it never touches their rows.
    TestBench bench(smallConfig(21));
    dram::Device &dev = bench.device();
    hammer::PatternTimings t;
    const Program first = hammer::doubleSidedRowHammer(
        0, dev.toLogical(32), dev.toLogical(34), 3000, t);
    const Program second = hammer::doubleSidedRowHammer(
        0, dev.toLogical(10), dev.toLogical(12), 3000, t);
    bench.run(first);
    const Time stamp = dev.lastCloseAt(0, dev.toLogical(32));

    const std::uint64_t replayed_before =
        bench.executor().stats().fastPathIterations;
    const ExecResult second_run = bench.run(second);
    const std::uint64_t replayed =
        bench.executor().stats().fastPathIterations - replayed_before;
    ASSERT_GT(replayed, 0u);
    ASSERT_GT(stamp, second_run.startTime);
    const Time body = 2 * (t.base.tRP + t.aggOn());
    EXPECT_EQ(dev.lastCloseAt(0, dev.toLogical(32)),
              stamp + body * static_cast<Time>(replayed));
}

// ---------------------------------------------------------------------------
// Prefix log
// ---------------------------------------------------------------------------

/** Searches on twin testers and the probes and prefix reuses made. */
struct OracleTally
{
    int searches = 0;
    std::uint64_t probes = 0;
    std::uint64_t reuses = 0;
};

/**
 * Seeded HC_first searches on twin testers: `live` runs every probe
 * as usual, `ref` drops its executor's prefix logs before every
 * probe, so it never applies one.  Each search is RowHammer, CoMRA,
 * SiMRA-2/8/16, a combined pattern, or RowHammer after a probed
 * single-sided loop that damages one of its aggressors (so the row
 * the prefix restores carries damage that grows with the probe, until
 * it flips), some with REFs interleaved, on a module with TRR on for
 * some seeds and a PARA hook for others; temperature changes and
 * module resets land between searches, and earlier searches' damage
 * stays in rows later ones do not rewrite.  Some searches repeat the
 * last one, so its first probe meets the log the last one filled,
 * some of those after a close outside any program that leaves a row
 * the search hits set from the other side.  After every probe both
 * devices must agree bit for bit.
 */
void
runPrefixOracle(std::uint64_t seed, OracleTally &tally)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", seed);
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    for (double *anchor : {&cfg.profile.rhMin, &cfg.profile.rhAvg,
                           &cfg.profile.comraMin, &cfg.profile.comraAvg,
                           &cfg.profile.simraMin, &cfg.profile.simraAvg})
        *anchor /= 50;
    hammer::ModuleTester live(cfg), ref(cfg);
    Rng rng(seed);

    mitigation::ParaConfig para_cfg;
    para_cfg.probability = 1.0 / 64;
    para_cfg.seed = seed;
    std::optional<mitigation::ParaMitigation> para_live, para_ref;
    if (seed % 6 == 5) {
        para_live.emplace(para_cfg, cfg.rowsPerSubarray);
        para_ref.emplace(para_cfg, cfg.rowsPerSubarray);
        live.device().setMitigation(&*para_live);
        ref.device().setMitigation(&*para_ref);
    }
    const bool trr = seed % 4 == 3;
    live.device().setTrrEnabled(trr);
    ref.device().setTrrEnabled(trr);

    hammer::PatternTimings t;
    t.base = cfg.timings;
    hammer::HcSearchConfig search;
    search.maxHammers = 20000;
    search.rampStart = 64;

    RowId victim = 1;
    BankId bank = 0;
    int kind = 0;
    std::vector<RowId> aggressors;
    Program base;
    std::size_t probed = 0;
    bool interleave = false;
    auto pattern = DataPattern::P00;
    bool searched = false;  // the last pass ran a search
    for (int k = 0; k < 4; ++k) {
        const Device &dev = live.device();
        auto at = [&](RowId phys) { return dev.toLogical(phys); };

        // A third of the searches repeat the last one: its plan runs
        // again, so the first probe can reuse the log the last search
        // filled.  Half of those first open and close the row three
        // past the victim outside any program, which leaves the row two
        // past it hit from the other side than the search hits it.
        const bool repeat = searched && rng.below(3) == 0;
        if (repeat && rng.below(2) == 0 &&
            victim + 3 < cfg.rowsPerBank()) {
            for (hammer::ModuleTester *tester : {&live, &ref}) {
                Device &d = tester->device();
                const Time when = d.now() + units::fromNs(1000);
                d.act(when, bank, d.toLogical(victim + 3));
                d.pre(when + units::fromNs(1000), bank);
                d.flush();
            }
        }
        searched = false;
        if (!repeat) {
            // Half the searches move four rows on in the same bank, so
            // their rows start out hit from the other side.
            if (k == 0 || rng.below(2) == 0 ||
                victim + 6 >= cfg.rowsPerBank()) {
                bank = static_cast<BankId>(rng.below(cfg.banks));
                victim = static_cast<RowId>(
                    1 + 2 * rng.below(cfg.rowsPerBank() / 2 - 1));  // odd
            } else {
                victim += 4;
            }
            kind = static_cast<int>(rng.below(7));
            aggressors = {victim - 1, victim + 1};
            base = Program();
            probed = 0;
            auto simra = [&](int n) {
                return live.planSimraDouble(victim, n);
            };
            if (kind == 0) {
                base = hammer::doubleSidedRowHammer(
                    bank, at(victim - 1), at(victim + 1), 1, t);
            } else if (kind == 1) {
                base = hammer::comraHammer(bank, at(victim - 1),
                                           at(victim + 1), 1, t);
            } else if (kind <= 4) {
                const int n = kind == 2 ? 2 : kind == 3 ? 8 : 16;
                const auto plan = simra(n);
                if (!plan)
                    continue;
                aggressors = plan->group;
                base = hammer::simraHammer(bank, at(plan->r1),
                                           at(plan->r2), 1, t);
            } else if (kind == 6) {
                if (victim + 2 >= cfg.rowsPerBank())
                    continue;
                aggressors.push_back(victim + 2);
                base.loopBegin(1)
                    .act(bank, at(victim + 2), t.base.tRP)
                    .pre(bank, t.aggOn())
                    .loopEnd();
                base.ref(t.base.tRP);  // applies the pending close
                base.loopBegin(20)
                    .act(bank, at(victim - 1), t.base.tRP)
                    .pre(bank, t.aggOn())
                    .act(bank, at(victim + 1), t.base.tRP)
                    .pre(bank, t.aggOn())
                    .loopEnd();
            } else {
                const auto plan = simra(4);
                if (!plan)
                    continue;
                aggressors.insert(aggressors.end(), plan->group.begin(),
                                  plan->group.end());
                hammer::CombinedCounts counts;
                counts.comra = 300;
                counts.simra = 200;
                counts.rowHammer = 1;
                base = hammer::combinedPattern(
                    bank, at(victim - 1), at(victim + 1), at(victim - 1),
                    at(victim + 1), at(plan->r1), at(plan->r2), counts,
                    t);
                probed = base.loopCount() - 1;
            }
            interleave = rng.below(5) == 0;
            pattern = static_cast<DataPattern>(rng.below(4));
        }
        SCOPED_TRACE("search " + std::to_string(k) + " kind " +
                     std::to_string(kind) + " victim " +
                     std::to_string(victim) + (repeat ? " (repeat)" : ""));
        const RowData aggr_data(cfg.cols, pattern);
        const RowData victim_data(cfg.cols, dram::negate(pattern));

        auto trial = [&](std::uint64_t n) {
            Program p = base.withLoopCount(probed, n);
            if (interleave)
                p = hammer::withRefInterleave(p, t.base);
            auto probe = [&](hammer::ModuleTester &tester) {
                Device &d = tester.device();
                for (RowId a : aggressors)
                    d.writeRowDirect(bank, d.toLogical(a), aggr_data);
                d.writeRowDirect(bank, d.toLogical(victim), victim_data);
                tester.bench().run(p);
                return tester.bench().countBitflips(
                           bank, d.toLogical(victim), victim_data) > 0;
            };
            const bool flipped = probe(live);
            ref.bench().executor().reset();
            EXPECT_EQ(flipped, probe(ref)) << "probe " << n;
            expectSameDevice(live.device(), ref.device());
            ++tally.probes;
            return flipped;
        };
        hammer::findHcFirst(search, trial);
        ++tally.searches;
        searched = true;
        if (::testing::Test::HasFailure())
            return;

        if (rng.below(4) == 0) {
            const Celsius temp = 50.0 + 10.0 * rng.below(5);
            live.device().setTemperature(temp);
            ref.device().setTemperature(temp);
        }
        if (rng.below(8) == 0) {  // arena reuse: a new module
            searched = false;  // whose mapping the program may not fit
            tally.reuses += live.bench().executor().stats().prefixReuses;
            const std::uint64_t module = seed + 1000 * (k + 1);
            live.reset(module);
            ref.reset(module);
            live.device().setTrrEnabled(trr);
            ref.device().setTrrEnabled(trr);
            if (para_live) {
                live.device().setMitigation(&*para_live);
                ref.device().setMitigation(&*para_ref);
            }
        }
    }
    tally.reuses += live.bench().executor().stats().prefixReuses;
    live.device().setMitigation(nullptr);
    ref.device().setMitigation(nullptr);
}

TEST(PrefixLog, SearchesMatchATesterThatNeverReuses)
{
    OracleTally tally;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        runPrefixOracle(seed, tally);
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_GE(tally.searches, 200);
    // Not vacuous: most probes of the hook-free, REF-free searches come
    // from the log.
    EXPECT_GT(tally.reuses, tally.probes / 3);
}

// ---- segment logs (DESIGN.md §4.2) -----------------------------------

/** What a Fig-24 loop runs under. */
enum class SegmentArm
{
    Trr,       //!< native TRR: REF-bearing bodies never replay
    Para,      //!< a PARA hook, which can preview its closes
    Graphene,  //!< a Graphene hook, which cannot
    None,      //!< no mitigation: the loop replays, with phase breaks
};

/** A Fig-24 cell: its technique and N. */
struct Fig24Cell
{
    hammer::TrrTechnique tech;
    int param;
};

/**
 * A Fig-24 cell's program -- the pattern runTrrExperiment() builds,
 * without its profiling sweep, for `cycles` loop iterations -- run
 * once under `arm` with the fast path on or off.  `weak` divides the
 * family's RowHammer thresholds by 400, so cells flip, and TRR and the
 * hooks' refreshes materialize the flips, while the loop runs.
 */
class SegmentRun
{
  public:
    SegmentRun(const Fig24Cell &cell, SegmentArm arm, bool fast, bool weak,
               std::uint64_t cycles)
        : tester_(config(weak))
    {
        using hammer::TrrTechnique;
        Device &dev = tester_.device();
        const RowId rps = dev.config().rowsPerSubarray;
        const RowId base = rps, mid = base + rps / 2;
        hammer::PatternTimings t;
        Program program;
        std::vector<RowId> aggressors;  // physical
        if (cell.tech == TrrTechnique::Simra) {
            const auto plan =
                cell.param <= 16
                    ? tester_.planSimraDouble((mid & ~RowId(3)) | 1,
                                              cell.param)
                    : tester_.planSimraSingle(
                          mid / cell.param * cell.param - 1, cell.param);
            EXPECT_TRUE(plan.has_value());
            aggressors = plan->group;
            program = hammer::trrSimraPattern(
                0, dev.toLogical(plan->r1), dev.toLogical(plan->r2), cycles,
                t, 156);
        } else {
            std::vector<RowId> logical;
            for (int i = 0; i < cell.param; ++i) {
                aggressors.push_back(mid + 2 * static_cast<RowId>(i));
                logical.push_back(dev.toLogical(aggressors.back()));
            }
            program = hammer::trrBypassPattern(
                0, logical, dev.toLogical(base + 4),
                cell.tech == TrrTechnique::Comra, cycles, t, 156);
        }

        const DataPattern pattern = cell.tech == TrrTechnique::Simra
                                        ? DataPattern::P00
                                        : DataPattern::P55;
        const RowData aggr(dev.config().cols, pattern);
        const RowData victim(dev.config().cols, negate(pattern));
        for (RowId r = base; r < base + rps; ++r) {
            const bool is_aggr = std::find(aggressors.begin(),
                                           aggressors.end(),
                                           r) != aggressors.end();
            dev.writeRowDirect(0, dev.toLogical(r), is_aggr ? aggr : victim);
        }
        switch (arm) {
          case SegmentArm::Trr:
            dev.setTrrEnabled(true);
            break;
          case SegmentArm::Para:
            para_.emplace(mitigation::ParaConfig{}, rps);
            dev.setMitigation(&*para_);
            break;
          case SegmentArm::Graphene:
            graphene_.emplace(mitigation::GrapheneConfig{}, 1, rps);
            dev.setMitigation(&*graphene_);
            break;
          case SegmentArm::None:
            break;
        }
        tester_.bench().executor().setFastPath(fast);
        end_ = tester_.bench().run(program).endTime;
        dev.setMitigation(nullptr);
    }

    const Device &device() { return tester_.device(); }
    const ExecStats &stats() { return tester_.bench().executor().stats(); }
    Time end() const { return end_; }
    const std::optional<mitigation::ParaMitigation> &para() const
    {
        return para_;
    }
    const std::optional<mitigation::GrapheneMitigation> &graphene() const
    {
        return graphene_;
    }

  private:
    static DeviceConfig
    config(bool weak)
    {
        DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", 3);
        cfg.banks = 1;
        cfg.subarraysPerBank = 2;
        cfg.rowsPerSubarray = 128;
        cfg.cols = 256;
        if (weak) {
            cfg.profile.rhMin /= 400;
            cfg.profile.rhAvg /= 400;
        }
        return cfg;
    }

    hammer::ModuleTester tester_;
    std::optional<mitigation::ParaMitigation> para_;
    std::optional<mitigation::GrapheneMitigation> graphene_;
    Time end_ = 0;
};

/** Compare a fast-path run with a live one bit for bit, hooks too. */
void
expectSameSegmentRun(SegmentRun &fast, SegmentRun &live)
{
    EXPECT_EQ(live.stats().segmentApplies, 0u);
    EXPECT_EQ(fast.end(), live.end());
    expectSameDevice(fast.device(), live.device());
    if (fast.para()) {
        EXPECT_EQ(fast.para()->fires(), live.para()->fires());
        Rng a = fast.para()->rng(), b = live.para()->rng();
        EXPECT_EQ(a.next(), b.next()) << "PARA's next draw";
    }
    if (fast.graphene()) {
        EXPECT_EQ(fast.graphene()->triggers(),
                  live.graphene()->triggers());
    }
}

/** {cell index in kFig24Cells, arm}. */
class SegmentLog
    : public ::testing::TestWithParam<std::tuple<int, SegmentArm>>
{};

const Fig24Cell kFig24Cells[] = {
    {hammer::TrrTechnique::RowHammer, 2}, {hammer::TrrTechnique::RowHammer, 4},
    {hammer::TrrTechnique::Comra, 2},     {hammer::TrrTechnique::Comra, 4},
    {hammer::TrrTechnique::Simra, 2},     {hammer::TrrTechnique::Simra, 8},
    {hammer::TrrTechnique::Simra, 16},    {hammer::TrrTechnique::Simra, 32},
};

TEST_P(SegmentLog, MatchesLiveExecution)
{
    // A Fig-24 loop under TRR or a hook never replays: it runs segment
    // by segment, each applied from its log where the guards and the
    // hook's preview allow.  The device and the hook must end exactly
    // as live execution leaves them.
    const auto [index, arm] = GetParam();
    const Fig24Cell &cell = kFig24Cells[index];
    const std::uint64_t cycles =
        cell.tech == hammer::TrrTechnique::Simra ? 300 : 200;
    SegmentRun fast(cell, arm, true, false, cycles);
    SegmentRun live(cell, arm, false, false, cycles);
    expectSameSegmentRun(fast, live);
    EXPECT_EQ(fast.stats().fastPathIterations, 0u);
    // Not vacuous: TRR's segments, and PARA's where a segment's coins
    // mostly stay quiet (fewer than 312 per segment), come from the
    // logs; Graphene cannot preview, so its loop runs live and logs
    // nothing.
    const bool quiet_para = cell.tech != hammer::TrrTechnique::Simra ||
                            cell.param <= 2;
    if (arm == SegmentArm::Trr ||
        (arm == SegmentArm::Para && quiet_para)) {
        EXPECT_GT(fast.stats().segmentApplies, cycles / 2);
    }
    if (arm == SegmentArm::Graphene) {
        EXPECT_EQ(fast.stats().segmentApplies, 0u);
        EXPECT_EQ(fast.stats().segmentFills, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig24, SegmentLog,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(SegmentArm::Trr, SegmentArm::Para,
                                         SegmentArm::Graphene)));

TEST(SegmentLog, FlipsMidRunMatchLiveExecution)
{
    // With thresholds 400x lower, TRR's and PARA's refreshes
    // materialize flips while the loop runs: each moves the data
    // epoch, which stales every log, so the segments refill.
    for (const Fig24Cell &cell :
         {Fig24Cell{hammer::TrrTechnique::RowHammer, 2},
          Fig24Cell{hammer::TrrTechnique::Simra, 8}}) {
        for (SegmentArm arm : {SegmentArm::Trr, SegmentArm::Para}) {
            SegmentRun fast(cell, arm, true, true, 200);
            SegmentRun live(cell, arm, false, true, 200);
            expectSameSegmentRun(fast, live);
            EXPECT_GT(fast.stats().segmentFills, 3u);
        }
    }
}

TEST(SegmentLog, FillDuringWhichTheHookFiredIsNeverApplied)
{
    // Three adjacent rows ACTed in turn, then a REF.  A PARA refresh
    // fired by the middle row's close lands on the two outer rows,
    // which the segment restores anyway, so the damage and side guards
    // can pass on a later segment: only discarding the fill keeps a
    // quiet segment from re-applying that refresh.  Such a fill is
    // rare -- most segments apply a log -- hence the long loops.
    struct Outcome
    {
        std::uint64_t fires;
        Rng rng;
    };
    auto run = [](TestBench &bench, bool fast, std::uint64_t seed) {
        Device &dev = bench.device();
        mitigation::ParaConfig pcfg;
        pcfg.probability = 0.15;
        pcfg.seed = seed;
        mitigation::ParaMitigation para(pcfg, dev.config().rowsPerSubarray);
        dev.setMitigation(&para);
        bench.executor().setFastPath(fast);
        const TimingParams &tm = dev.config().timings;
        hammer::PatternTimings t;
        Program p;
        p.loopBegin(2000);
        for (RowId r = 20; r < 23; ++r)
            p.act(0, dev.toLogical(r), tm.tRP).pre(0, t.aggOn());
        p.ref(tm.tRP).loopEnd();
        bench.run(p);
        dev.setMitigation(nullptr);
        return Outcome{para.fires(), para.rng()};
    };
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        TestBench fast_bench(smallConfig(5)), live_bench(smallConfig(5));
        const Outcome fast = run(fast_bench, true, seed);
        const Outcome live = run(live_bench, false, seed);
        expectSameDevice(fast_bench.device(), live_bench.device());
        EXPECT_EQ(fast.fires, live.fires);
        EXPECT_TRUE(fast.rng == live.rng);
        EXPECT_GT(fast_bench.executor().stats().segmentApplies, 1000u);
    }
}

// ---- phase breaks (DESIGN.md §4.2) -----------------------------------

/** FNV-1a over a device's whole observable state: what
 *  expectSameDevice() compares, for a table of pinned digests. */
std::uint64_t
deviceDigest(const Device &dev)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](const auto &value) {
        const auto *p = reinterpret_cast<const unsigned char *>(&value);
        for (std::size_t i = 0; i < sizeof value; ++i) {
            h ^= p[i];
            h *= 0x100000001B3ULL;
        }
    };
    const DeviceCounters &c = dev.counters();
    for (std::uint64_t v : {c.acts, c.pres, c.refs, c.comraCopies, c.simraOps,
                            c.ignoredCommands, c.trrRefreshes})
        mix(v);
    mix(dev.now());
    Rng trr = dev.trrRng(), noise = dev.noiseRng();
    mix(trr.next());
    mix(noise.next());
    const DeviceConfig &cfg = dev.config();
    for (BankId bank = 0; bank < cfg.banks; ++bank) {
        mix(dev.trrSamplerFill(bank));
        for (RowId r : dev.trrSamplerRows(bank))
            mix(r);
        for (RowId r = 0; r < cfg.rowsPerBank(); ++r) {
            mix(dev.lastCloseAt(bank, r));
            mix(dev.lastSide(bank, r));
            if (!dev.populated(bank, r))
                continue;
            mix(r);
            const RowData data = dev.readRowDirect(bank, r);
            for (ColId col = 0; col < data.bits(); ++col)
                mix(data.get(col));
            for (const WeakCell &cell : dev.weakCells(bank, r))
                mix(cell.damage);
        }
    }
    return h;
}

/** A digest pinned for a named run; print the table on a mismatch. */
struct PinnedDigest
{
    const char *name;
    std::uint64_t digest;
};

/**
 * Check a run's digest against its pinned value and that the run took
 * the path under test: phase breaks, with segments applied from logs.
 */
void
expectPinned(std::span<const PinnedDigest> table, const std::string &name,
             std::uint64_t digest, const ExecStats &stats)
{
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const PinnedDigest &p) {
                                     return name == p.name;
                                 });
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxULL},", name.c_str(),
                  static_cast<unsigned long long>(digest));
    EXPECT_TRUE(it != table.end() && it->digest == digest) << line;
    EXPECT_GT(stats.phaseBreaks, 0u) << name;
    EXPECT_GT(stats.segmentApplies, 0u) << name;
}

/**
 * A refSync fuzz candidate run the way the campaign probes it -- host
 * writes, then the period loop -- at `trips` and again at two thirds
 * of it, on a fresh campaign device; `weak` divides every threshold
 * anchor by 400, so flips materialize on refreshes mid-run.
 */
std::pair<std::uint64_t, ExecStats>
runRefSync(const fuzz::Candidate &c, std::uint64_t trips, bool weak)
{
    fuzz::CampaignConfig ccfg;
    ccfg.seed = 17;
    DeviceConfig cfg = fuzz::campaignDeviceConfig(ccfg);
    if (weak) {
        for (double *anchor :
             {&cfg.profile.rhMin, &cfg.profile.rhAvg, &cfg.profile.comraMin,
              &cfg.profile.comraAvg, &cfg.profile.simraMin,
              &cfg.profile.simraAvg})
            *anchor /= 400;
    }
    const RowId victim = fuzz::campaignVictim(cfg.rowsPerSubarray);
    const fuzz::BuiltPattern built =
        fuzz::buildPattern(c, 0, victim, trips, cfg);
    TestBench bench(cfg);
    Device &dev = bench.device();
    const RowData aggr(cfg.cols, DataPattern::P55);
    const RowData vict(cfg.cols, negate(DataPattern::P55));
    for (std::uint64_t n : {trips, trips * 2 / 3}) {
        for (RowId a : built.aggressors)
            dev.writeRowDirect(0, a, aggr);
        dev.writeRowDirect(0, victim, vict);
        bench.run(built.program.withLoopCount(0, n));
    }
    return {deviceDigest(dev), bench.executor().stats()};
}

/** The refSync candidates the oracle runs, and their names. */
std::vector<std::pair<std::string, fuzz::Candidate>>
refSyncCandidates()
{
    using fuzz::Tech;
    std::vector<std::pair<std::string, fuzz::Candidate>> out;
    // Every technique alone, then under a RowHammer stripe, over 1-4
    // tREFIs.
    for (int trefis = 1; trefis <= 4; ++trefis) {
        for (int tech = 0; tech < 4; ++tech) {
            fuzz::Candidate c;
            c.trefis = static_cast<std::uint8_t>(trefis);
            c.slotsPerTrefi = 8;
            c.refSync = true;
            fuzz::Component k;
            k.tech = static_cast<Tech>(tech);
            k.phase = static_cast<std::uint8_t>(trefis % 3);
            k.stride = static_cast<std::uint8_t>(1 + tech % 2);
            if (k.tech == Tech::Simra) {
                k.offLo = k.offHi = 0;
                k.simraN = static_cast<std::uint8_t>(2 << (trefis % 3));
            }
            k.timingSel = static_cast<std::uint8_t>(
                k.tech == Tech::Press ? 1 + trefis % 3 : trefis % 3);
            c.comps.push_back(k);
            if (trefis % 2 == 0) {
                c.comps.push_back({Tech::RowHammer, 1, 4, -2, 2, 0, 0});
            }
            out.emplace_back("t" + std::to_string(trefis) + "-" +
                                 fuzz::techName(k.tech),
                             c);
        }
    }
    // Campaign draws, made refSync.
    for (std::uint64_t i = 0; i < 6; ++i) {
        fuzz::Candidate c = fuzz::generateCandidate(5, i);
        c.refSync = true;
        out.emplace_back("gen" + std::to_string(i), c);
    }
    return out;
}

/**
 * Digests of the runs below, taken from a build that ran every
 * unrecorded live iteration command by command: the segment logs must
 * reproduce it bit for bit.  A mismatch prints the run's line.
 */
const PinnedDigest kRefSyncDigests[] = {
    {"t1-rowhammer", 0x144c0513f8e8aa8bULL},
    {"t1-comra", 0xb463432b42ee3095ULL},
    {"t1-simra", 0x7452c81f2242a078ULL},
    {"t1-press", 0x5090a1636f77f00bULL},
    {"t2-rowhammer", 0x482ba8b3beae1a1dULL},
    {"t2-comra", 0x12f28cfac20dd698ULL},
    {"t2-simra", 0x68eaed911e0ca3e2ULL},
    {"t2-press", 0x3fc1908650c6f322ULL},
    {"t3-rowhammer", 0x404c4735960bbc20ULL},
    {"t3-comra", 0x604b14456b6c7488ULL},
    {"t3-simra", 0xaff56ea83c671b28ULL},
    {"t3-press", 0xb52a2bccc3712216ULL},
    {"t4-rowhammer", 0xaf8ccef76efd6f24ULL},
    {"t4-comra", 0x08ac0615f2bc410cULL},
    {"t4-simra", 0xd4981f2a09b6d9f7ULL},
    {"t4-press", 0xcd2650f2faee9c37ULL},
    {"gen0", 0x867d8bfbc29b815dULL},
    {"gen1", 0xd29a83cf62b5d88fULL},
    {"gen2", 0xd6724d0eebb35bb7ULL},
    {"gen3", 0x0cec9df383770f89ULL},
    {"gen4", 0xa51eaa8a1d90d795ULL},
    {"gen5", 0x866b6363e1e134d6ULL},
    {"weak", 0x8379da178cf3d687ULL},
};

const PinnedDigest kFig24Digests[] = {
    {"rh-2", 0xd0bd2ced3f9675b4ULL},
    {"simra-8", 0xc293b4cfd541e8e6ULL},
};

TEST(PhaseBreak, RefSyncFuzzProgramsMatchPinnedDigests)
{
    // A REF at every tREFI keeps landing the stripe refresh on rows the
    // loop damages: each collision is a phase break, whose live
    // iterations -- the break itself, the next chunk's warm-ups --
    // re-apply segment logs.  Each run's REFs sweep the victim's block
    // of rows twice.
    for (const auto &[name, c] : refSyncCandidates()) {
        SCOPED_TRACE(name);
        const std::uint64_t trips = 12000 / c.trefis + 37;
        const auto [digest, stats] = runRefSync(c, trips, false);
        expectPinned(kRefSyncDigests, name, digest, stats);
    }
    // Flips materialize mid-run: every refresh that toggles a bit
    // moves the data epoch and stales the logs.
    fuzz::Candidate weak;
    weak.trefis = 2;
    weak.slotsPerTrefi = 8;
    weak.refSync = true;
    weak.comps = {{fuzz::Tech::RowHammer, 0, 1, -1, 1, 0, 0},
                  {fuzz::Tech::Simra, 3, 4, 0, 0, 4, 1}};
    const auto [digest, stats] = runRefSync(weak, 3000, true);
    expectPinned(kRefSyncDigests, "weak", digest, stats);
}

TEST(PhaseBreak, Fig24BodiesWithTrrOffMatchPinnedDigests)
{
    // Without TRR the Fig-24 loops replay; over a whole refresh window
    // the stripe crosses the aggressors and the dummy row.
    for (const Fig24Cell &cell :
         {Fig24Cell{hammer::TrrTechnique::RowHammer, 2},
          Fig24Cell{hammer::TrrTechnique::Simra, 8}}) {
        const std::string name =
            cell.tech == hammer::TrrTechnique::Simra ? "simra-8" : "rh-2";
        SCOPED_TRACE(name);
        SegmentRun run(cell, SegmentArm::None, true, false, 8500);
        expectPinned(kFig24Digests, name, deviceDigest(run.device()),
                     run.stats());
    }
}

} // namespace
