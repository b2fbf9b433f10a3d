/**
 * @file
 * Unit tests for the bender-program static analyzer: one fixture per
 * diagnostic code, golden clean canonical patterns, and the executor
 * pre-flight integration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bender/host.h"
#include "dram/device.h"
#include "hammer/patterns.h"
#include "lint/absint.h"
#include "lint/effects.h"
#include "lint/linter.h"
#include "lint/report.h"
#include "util/rng.h"

namespace {

using namespace pud;
using namespace pud::bender;
using namespace pud::lint;

dram::DeviceConfig
smallConfig(const std::string &module = "HMA81GU7AFR8N-UH")
{
    dram::DeviceConfig cfg = dram::makeConfig(module);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    // Identity mapping so tests can reason about physical adjacency
    // directly in the row numbers they pass to the builders.
    cfg.profile.mapping = dram::MappingScheme::Sequential;
    return cfg;
}

bool
has(const LintResult &r, Code code)
{
    return std::any_of(r.diags.begin(), r.diags.end(),
                       [&](const Diag &d) { return d.code == code; });
}

std::size_t
countCode(const LintResult &r, Code code)
{
    return static_cast<std::size_t>(
        std::count_if(r.diags.begin(), r.diags.end(),
                      [&](const Diag &d) { return d.code == code; }));
}

const dram::TimingParams kT{};

// ---- loop structure ----------------------------------------------------

TEST(Lint, UnbalancedLoop)
{
    Program p;
    p.loopBegin(3).act(0, 1, kT.tRP).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::UnbalancedLoop));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, EmptyLoop)
{
    Program p;
    p.loopBegin(5).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::EmptyLoop));
    EXPECT_TRUE(r.clean());  // warning, not error
}

TEST(Lint, ZeroTripLoop)
{
    Program p;
    p.loopBegin(0).act(0, 1, kT.tRP).pre(0, kT.tRAS).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::ZeroTripLoop));
    EXPECT_EQ(r.duration, 0);  // body never executes
}

TEST(Lint, FastPathEligible)
{
    Program p;
    p.loopBegin(1000).act(0, 1, kT.tRP).pre(0, kT.tRAS).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::FastPathEligible));
    EXPECT_FALSE(has(r, Code::FastPathIneligible));
}

TEST(Lint, RefBearingLoopIsNowFastPathEligible)
{
    // REF and nested loops no longer defeat the fast-path (the
    // executor replays them closed-form); only RD does.
    Program p;
    p.loopBegin(1000)
        .act(0, 1, kT.tRP)
        .pre(0, kT.tRAS)
        .ref(kT.tRP)
        .nop(kT.tRFC)
        .loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::FastPathEligible));
    EXPECT_FALSE(has(r, Code::FastPathIneligible));
}

TEST(Lint, FastPathIneligibleExplainsWhy)
{
    Program p;
    p.loopBegin(1000)
        .act(0, 1, kT.tRP)
        .rd(0, kT.tRCD)
        .pre(0, kT.tRAS)
        .loopEnd();
    const auto r = lintProgram(p, smallConfig());
    ASSERT_TRUE(has(r, Code::FastPathIneligible));
    for (const Diag &d : r.diags) {
        if (d.code == Code::FastPathIneligible) {
            EXPECT_NE(d.message.find("RD"), std::string::npos);
        }
    }
}

TEST(Lint, ShortLoopGetsNoFastPathNote)
{
    Program p;
    p.loopBegin(2).act(0, 1, kT.tRP).pre(0, kT.tRAS).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_FALSE(has(r, Code::FastPathEligible));
    EXPECT_FALSE(has(r, Code::FastPathIneligible));
}

// ---- per-bank DDR protocol ---------------------------------------------

TEST(Lint, BankOutOfRange)
{
    Program p;
    p.act(5, 1, kT.tRP);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::BankOutOfRange));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, RowOutOfRange)
{
    Program p;
    p.act(0, 500, kT.tRP).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::RowOutOfRange));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, ActWhileOpen)
{
    Program p;
    p.act(0, 1, kT.tRP).act(0, 2, kT.tRC).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::ActWhileOpen));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, RdOnClosedBank)
{
    Program p;
    p.rd(0, kT.tRCD);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::RdOnClosedBank));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, WrOnClosedBank)
{
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::P55));
    p.wr(0, d, kT.tRCD);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::WrOnClosedBank));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, PreOnIdleBank)
{
    Program p;
    p.pre(0, kT.tRP);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::PreOnIdleBank));
    EXPECT_TRUE(r.clean());  // a no-op, not an error
}

TEST(Lint, PreAllIsNotPreOnIdle)
{
    Program p;
    p.act(0, 1, kT.tRP).preAll(kT.tRAS).preAll(kT.tRP);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_FALSE(has(r, Code::PreOnIdleBank));
}

TEST(Lint, RefWithOpenBank)
{
    Program p;
    p.act(0, 1, kT.tRP).ref(kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::RefWithOpenBank));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, NegativeGap)
{
    Program p;
    p.act(0, 1, -5).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::NegativeGap));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, OpenBankAtEnd)
{
    Program p;
    p.act(0, 1, kT.tRP);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::OpenBankAtEnd));
    EXPECT_TRUE(r.clean());  // warning: the *next* program fatals
}

// ---- data table --------------------------------------------------------

TEST(Lint, WrBadDataIndex)
{
    Program p;
    p.act(0, 1, kT.tRP).wrUnchecked(0, 3, kT.tRCD).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::WrBadDataIndex));
    EXPECT_FALSE(r.clean());
}

TEST(Lint, WrWidthMismatch)
{
    Program p;
    const int d = p.addData(dram::RowData(128, dram::DataPattern::P55));
    p.act(0, 1, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::WrWidthMismatch));
    EXPECT_FALSE(r.clean());
}

// ---- timing classifier -------------------------------------------------

TEST(Lint, IntendedComra)
{
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, kT.tRAS)
        .act(0, 34, units::fromNs(7.5))
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::IntendedComra));
    EXPECT_EQ(r.count(Severity::Warning), 0u);
}

TEST(Lint, IntendedSimra)
{
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, units::fromNs(3))
        .act(0, 38, units::fromNs(3))
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::IntendedSimra));
    EXPECT_EQ(r.count(Severity::Warning), 0u);
}

TEST(Lint, SimraUnsupportedModule)
{
    // KVR21S15S8/4 (Micron) ignores grossly violating commands.
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, units::fromNs(3))
        .act(0, 38, units::fromNs(3))
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig("KVR21S15S8/4"));
    EXPECT_TRUE(has(r, Code::SimraUnsupported));
    EXPECT_FALSE(has(r, Code::IntendedSimra));
}

TEST(Lint, SuspiciousPreToAct)
{
    // Between the CoMRA window (13.0 ns) and nominal tRP (13.75 ns):
    // an accidental violation that neither copies nor is nominal.
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, kT.tRAS)
        .act(0, 34, units::fromNs(13.4))
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::SuspiciousPreToAct));
    EXPECT_FALSE(has(r, Code::IntendedComra));
}

TEST(Lint, ComraAcrossSubarraysIsSuspicious)
{
    // Rows 32 and 96 are in different subarrays (64 rows each): the
    // gap is in the CoMRA window but no copy can occur.
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, kT.tRAS)
        .act(0, 96, units::fromNs(7.5))
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::SuspiciousPreToAct));
    EXPECT_FALSE(has(r, Code::IntendedComra));
}

TEST(Lint, SuspiciousActToPre)
{
    // 20 ns on-time: violates tRAS but is far above the SiMRA window.
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, units::fromNs(20))
        .act(0, 34, kT.tRP)
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::SuspiciousActToPre));
    EXPECT_FALSE(has(r, Code::IntendedSimra));
}

TEST(Lint, SuspiciousActToActWithCustomTrc)
{
    // With the default set any tRC violation implies a tRAS or tRP
    // violation (tRAS + tRP > tRC); a custom tRC = 60 ns exposes the
    // pure ACT->ACT check.
    dram::DeviceConfig cfg = smallConfig();
    cfg.timings.tRC = units::fromNs(60);
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, kT.tRAS)
        .act(0, 34, units::fromNs(14))
        .pre(0, kT.tRAS);
    const auto r = lintProgram(p, cfg);
    EXPECT_TRUE(has(r, Code::SuspiciousActToAct));
}

TEST(Lint, ColumnBeforeTrcd)
{
    Program p;
    p.act(0, 1, kT.tRP).rd(0, units::fromNs(5)).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::ColumnBeforeTrcd));
    EXPECT_TRUE(r.clean());
}

TEST(Lint, RefRecoveryShort)
{
    Program p;
    p.ref(kT.tRP).act(0, 1, units::fromNs(100)).pre(0, kT.tRAS);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::RefRecoveryShort));
    EXPECT_TRUE(r.clean());
}

TEST(Lint, RefreshWindowExceeded)
{
    // 2M iterations x ~50 ns = ~100 ms > tREFW (64 ms), no REF.
    Program p;
    p.loopBegin(2000000)
        .act(0, 1, kT.tRP)
        .pre(0, kT.tRAS)
        .loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_TRUE(has(r, Code::RefreshWindowExceeded));
    EXPECT_GT(r.duration, smallConfig().timings.tREFW);
}

TEST(Lint, RefSuppressesWindowWarning)
{
    Program p;
    p.loopBegin(2000000)
        .act(0, 1, kT.tRP)
        .pre(0, kT.tRAS)
        .ref(kT.tRP)
        .loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_FALSE(has(r, Code::RefreshWindowExceeded));
}

// ---- lint verdicts vs the executed device --------------------------------

/** Run `p` on a fresh device with pre-flight off; its counters. */
dram::DeviceCounters
execute(const Program &p, const dram::DeviceConfig &cfg)
{
    TestBench bench(cfg);
    bench.executor().setPreflight(false);
    bench.run(p);
    return bench.device().counters();
}

TEST(LintDevice, IgnoredSimraKeepsTheFirstRowOpen)
{
    // The ignored ACT-PRE-ACT leaves row 32 open since its first ACT,
    // so the full-restore PRE and the quick ACT copy 32 -> 38.
    const dram::DeviceConfig cfg = smallConfig("KVR21S15S8/4");
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, units::fromNs(3))
        .act(0, 38, units::fromNs(3))
        .pre(0, kT.tRAS)
        .act(0, 38, units::fromNs(7.5));
    const auto dev = execute(p, cfg);
    EXPECT_EQ(dev.ignoredCommands, 2u);
    EXPECT_EQ(dev.comraCopies, 1u);

    const auto r = lintProgram(p, cfg);
    EXPECT_TRUE(has(r, Code::SimraUnsupported));
    EXPECT_TRUE(has(r, Code::IntendedComra));
    EXPECT_FALSE(has(r, Code::SuspiciousPreToAct));
}

TEST(LintDevice, DegenerateSimraPairIsAConventionalReopen)
{
    // ACT-PRE-ACT of the same row resolves to a single wordline.
    const dram::DeviceConfig cfg = smallConfig();
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, units::fromNs(3))
        .act(0, 32, units::fromNs(3));
    EXPECT_EQ(execute(p, cfg).simraOps, 0u);

    const auto r = lintProgram(p, cfg);
    EXPECT_FALSE(has(r, Code::IntendedSimra));
    EXPECT_TRUE(has(r, Code::SuspiciousActToPre));
}

TEST(LintDevice, SimraGroupCloseNeverCopies)
{
    // The PRE closes the 4-row group {32, 34, 36, 38}: a multi-row
    // pending close never reclassifies, so ACT 34 copies nothing.
    const dram::DeviceConfig cfg = smallConfig();
    Program p;
    p.act(0, 32, kT.tRP)
        .pre(0, units::fromNs(3))
        .act(0, 38, units::fromNs(3))
        .pre(0, kT.tRAS)
        .act(0, 34, units::fromNs(7.5));
    const auto dev = execute(p, cfg);
    EXPECT_EQ(dev.simraOps, 1u);
    EXPECT_EQ(dev.comraCopies, 0u);

    const auto r = lintProgram(p, cfg);
    EXPECT_TRUE(has(r, Code::IntendedSimra));
    EXPECT_FALSE(has(r, Code::IntendedComra));
}

/**
 * Seeded property: on straight-line ACT/PRE programs with on-times and
 * gaps on both sides of every PuD window edge, and rows drawn as the
 * same row, the same subarray or the other subarray, the linter's
 * intended-PuD verdicts count exactly the PuD operations the executed
 * device performs.
 */
TEST(LintDevice, ReopenVerdictsMatchExecutedDevice)
{
    constexpr int kProgramsPerModule = 5000;
    const Time edges[] = {kT.simraMaxActToPre, kT.simraMaxPreToAct,
                          kT.tRAS - units::ns, kT.comraMaxPreToAct};
    const Time offsets[] = {-units::ns, -units::ps, 0, units::ps,
                            units::ns};
    Rng rng(0x5EED14);
    const auto draw = [&] {
        return edges[rng.below(4)] + offsets[rng.below(5)];
    };

    LintOptions opts;
    opts.maxRepeatsPerCode = 0;
    dram::DeviceCounters total;
    for (const char *module : {"HMA81GU7AFR8N-UH", "KVR21S15S8/4"}) {
        const dram::DeviceConfig cfg = smallConfig(module);
        const dram::RowId rps = cfg.rowsPerSubarray;
        for (int n = 0; n < kProgramsPerModule; ++n) {
            Program p;
            auto row = static_cast<dram::RowId>(
                rng.below(cfg.rowsPerBank()));
            Time gap = kT.tRP;
            const auto opens = 2 + rng.below(5);
            for (std::uint64_t k = 0; k < opens; ++k) {
                p.act(0, row, gap).pre(0, draw());
                gap = draw();
                const auto sub = row / rps;
                switch (rng.below(3)) {
                  case 0:  // same row
                    break;
                  case 1:  // same subarray
                    row = sub * rps +
                          static_cast<dram::RowId>(rng.below(rps));
                    break;
                  default:  // the other subarray
                    row = (sub ^ 1) * rps +
                          static_cast<dram::RowId>(rng.below(rps));
                    break;
                }
            }
            const auto dev = execute(p, cfg);
            const auto r = lintProgram(p, cfg, opts);
            const std::string where = std::string(module) +
                                      " program " + std::to_string(n);
            ASSERT_EQ(countCode(r, Code::IntendedComra), dev.comraCopies)
                << where;
            ASSERT_EQ(countCode(r, Code::IntendedSimra), dev.simraOps)
                << where;
            ASSERT_EQ(2 * countCode(r, Code::SimraUnsupported),
                      dev.ignoredCommands)
                << where;
            total.comraCopies += dev.comraCopies;
            total.simraOps += dev.simraOps;
            total.ignoredCommands += dev.ignoredCommands;
        }
    }
    // The draws reach every PuD transition.
    EXPECT_GT(total.comraCopies, 0u);
    EXPECT_GT(total.simraOps, 0u);
    EXPECT_GT(total.ignoredCommands, 0u);
}

// ---- golden clean programs ---------------------------------------------

TEST(LintGolden, DoubleSidedRowHammerIsClean)
{
    hammer::PatternTimings t;
    const auto p = hammer::doubleSidedRowHammer(0, 32, 34, 50000, t);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_EQ(r.count(Severity::Error), 0u);
    EXPECT_EQ(r.count(Severity::Warning), 0u);
}

TEST(LintGolden, ComraHammerIsClean)
{
    hammer::PatternTimings t;
    const auto p = hammer::comraHammer(0, 32, 34, 50000, t);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_EQ(r.count(Severity::Error), 0u);
    EXPECT_EQ(r.count(Severity::Warning), 0u);
    EXPECT_TRUE(has(r, Code::IntendedComra));
}

TEST(LintGolden, SimraHammerIsClean)
{
    hammer::PatternTimings t;
    const auto p = hammer::simraHammer(0, 32, 38, 50000, t);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_EQ(r.count(Severity::Error), 0u);
    EXPECT_EQ(r.count(Severity::Warning), 0u);
    EXPECT_TRUE(has(r, Code::IntendedSimra));
}

TEST(LintGolden, CombinedPatternIsClean)
{
    hammer::PatternTimings t;
    hammer::CombinedCounts counts;
    counts.comra = 1000;
    counts.simra = 1000;
    counts.rowHammer = 50000;
    const auto p =
        hammer::combinedPattern(0, 32, 34, 32, 34, 32, 38, counts, t);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_EQ(r.count(Severity::Error), 0u);
    EXPECT_EQ(r.count(Severity::Warning), 0u);
}

// ---- walk mechanics ----------------------------------------------------

TEST(Lint, DiagnosticsDedupAcrossLoopIterations)
{
    Program p;
    p.loopBegin(1000).pre(0, kT.tRP).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    EXPECT_EQ(countCode(r, Code::PreOnIdleBank), 1u);
}

TEST(Lint, DurationMatchesExecutor)
{
    Program p;
    p.loopBegin(1000)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    const auto r = lintProgram(p, smallConfig());

    dram::Device dev(smallConfig());
    Executor ex(dev);
    ex.setPreflight(false);
    const auto exec = ex.run(p);
    EXPECT_EQ(r.duration, exec.endTime - exec.startTime);
}

TEST(Lint, NamesAreStable)
{
    for (int c = 0; c <= static_cast<int>(Code::DiagFlood); ++c) {
        EXPECT_STRNE(name(static_cast<Code>(c)), "?");
    }
    EXPECT_STREQ(name(Severity::Error), "error");
    EXPECT_STREQ(name(Severity::Warning), "warning");
    EXPECT_STREQ(name(Severity::Note), "note");
}

TEST(Lint, DescribeInst)
{
    Program p;
    p.act(0, 5, units::fromNs(13.75));
    EXPECT_EQ(describeInst(p, 0), "ACT b0 r5 @+13.75ns");
    EXPECT_EQ(describeInst(p, 9), "<end>");
}

// ---- integration -------------------------------------------------------

TEST(LintPreflight, RequireCleanIsFatalOnErrors)
{
    Program p;
    p.act(0, 1, kT.tRP).wrUnchecked(0, 3, kT.tRCD).pre(0, kT.tRAS);
    EXPECT_DEATH(requireClean(p, smallConfig(), "test"),
                 "pre-flight lint failed");
}

TEST(LintPreflight, ExecutorRefusesBadProgramWhenEnabled)
{
    dram::Device dev(smallConfig());
    Executor ex(dev);
    ex.setPreflight(true);
    Program p;
    p.act(0, 1, kT.tRP).wrUnchecked(0, 3, kT.tRCD).pre(0, kT.tRAS);
    EXPECT_DEATH(ex.run(p), "pre-flight lint failed");
}

TEST(LintPreflight, ExecutorWithoutPreflightDiesInExecOne)
{
    dram::Device dev(smallConfig());
    Executor ex(dev);
    ex.setPreflight(false);
    Program p;
    p.act(0, 1, kT.tRP).wrUnchecked(0, 3, kT.tRCD).pre(0, kT.tRAS);
    EXPECT_DEATH(ex.run(p), "invalid data index");
}

TEST(LintPreflight, ExecutorRunsCleanProgramWithPreflight)
{
    dram::Device dev(smallConfig());
    Executor ex(dev);
    ex.setPreflight(true);
    hammer::PatternTimings t;
    const auto p = hammer::comraHammer(0, 32, 34, 1000, t);
    const auto r = ex.run(p);
    EXPECT_GT(r.endTime, r.startTime);
}

TEST(LintPreflight, ExecutorLintsARepeatedShapeOnceEnabled)
{
    dram::Device dev(smallConfig());
    Executor ex(dev);
    // A WR past the data table, in a loop that first runs no trips.
    Program p;
    p.loopBegin(0)
        .act(0, 1, kT.tRP)
        .wrUnchecked(0, 3, kT.tRCD)
        .pre(0, kT.tRAS)
        .loopEnd();
    ex.setPreflight(false);
    ex.run(p);
    // The same shape with the pre-flight on is analyzed before it
    // runs: the lint refuses it, not the WR in execOne.
    ex.setPreflight(true);
    EXPECT_DEATH(ex.run(p.withLoopCount(0, 1)), "pre-flight lint failed");
}

// ---- loop summaries (absint) -------------------------------------------

constexpr int kConv = static_cast<int>(dram::TechClass::Conventional);
constexpr int kComra = static_cast<int>(dram::TechClass::Comra);
constexpr int kSimra = static_cast<int>(dram::TechClass::Simra);

TEST(AbsInt, TripCountIndependence)
{
    hammer::PatternTimings t;
    const auto cfg = smallConfig();
    const auto s1 = summarizeEffects(
        hammer::doubleSidedRowHammer(0, 32, 34, 1000, t), cfg);
    const auto s2 = summarizeEffects(
        hammer::doubleSidedRowHammer(0, 32, 34, 2000, t), cfg);
    const auto big = summarizeEffects(
        hammer::doubleSidedRowHammer(0, 32, 34, 1000000, t), cfg);

    // The no-unrolling guarantee: analysis work is identical at a
    // thousand and a million iterations.
    EXPECT_EQ(big.steps, s1.steps);
    EXPECT_TRUE(big.exact);

    // Additive fields are closed-form in the trip count ...
    EXPECT_EQ(big.totalActs, 1000 * s1.totalActs);
    const RowActivity *row = findRow(big, 0, 32);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->acts, 1000000u);
    EXPECT_EQ(row->closes[kConv], 1000000u);
    EXPECT_EQ(row->closes[kComra], 0u);

    // ... and so is the duration: extrapolating the two small runs
    // linearly must land exactly on the million-iteration result.
    EXPECT_EQ(big.duration,
              s1.duration + (s2.duration - s1.duration) * 999);

    // A steady-state loop pins min == max inter-ACT spacing.
    EXPECT_GT(row->minInterAct, 0);
    EXPECT_EQ(row->minInterAct, row->maxInterAct);
}

TEST(AbsInt, ClassifiesComraCloses)
{
    hammer::PatternTimings t;
    const auto fx = summarizeEffects(
        hammer::comraHammer(0, 32, 34, 5000, t), smallConfig());
    const RowActivity *src = findRow(fx, 0, 32);
    const RowActivity *dst = findRow(fx, 0, 34);
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    // One copy cycle = two Comra-class closes (src + dst).
    EXPECT_EQ(src->closes[kComra], 5000u);
    EXPECT_EQ(dst->closes[kComra], 5000u);
    EXPECT_EQ(src->closes[kConv], 0u);
    EXPECT_EQ(dst->closes[kConv], 0u);
    // The copy delay is the violated PRE -> ACT gap, per close.
    EXPECT_EQ(src->comraDelaySum, 5000 * t.comraPreToAct);
}

TEST(AbsInt, ClassifiesSimraGroupCloses)
{
    hammer::PatternTimings t;
    const auto fx = summarizeEffects(
        hammer::simraHammer(0, 32, 38, 4000, t), smallConfig());
    // Rows 32 and 38 differ in bits 1-2: the bit-combination group is
    // {32, 34, 36, 38}, and every member takes each close.
    for (RowId r : {32u, 34u, 36u, 38u}) {
        const RowActivity *ra = findRow(fx, 0, r);
        ASSERT_NE(ra, nullptr) << "row " << r;
        EXPECT_EQ(ra->closes[kSimra], 4000u) << "row " << r;
        EXPECT_EQ(ra->simraN, 4) << "row " << r;
    }
    // Only the two issued addresses accrue ACT commands.
    EXPECT_EQ(findRow(fx, 0, 32)->acts, 4000u);
    EXPECT_EQ(findRow(fx, 0, 34)->acts, 0u);
}

TEST(AbsInt, NestedLoopsMultiply)
{
    Program p;
    p.loopBegin(10);
    p.loopBegin(100).act(0, 1, kT.tRP).pre(0, kT.tRAS).loopEnd();
    p.loopEnd();
    const auto fx = summarizeEffects(p, smallConfig());
    EXPECT_TRUE(fx.exact);
    EXPECT_EQ(fx.totalActs, 1000u);
    const RowActivity *row = findRow(fx, 0, 1);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->acts, 1000u);
}

TEST(AbsInt, UnbalancedLoopIsLowerBound)
{
    Program p;
    p.loopBegin(1000).act(0, 1, kT.tRP).pre(0, kT.tRAS);
    const auto fx = summarizeEffects(p, smallConfig());
    EXPECT_FALSE(fx.exact);
    EXPECT_EQ(fx.totalActs, 1u);  // tail analyzed once
}

TEST(Lint, HugeTripCountsSaturate)
{
    // The six canonical `pudhammer lint` programs, at trip counts whose
    // products and sums overflow 64 bits, with every analysis on.
    const dram::DeviceConfig cfg = smallConfig();
    const hammer::PatternTimings t;
    LintOptions opts;
    opts.effects = true;
    opts.dataflow = true;
    opts.mitigations.trr = opts.mitigations.prac = true;
    opts.mitigations.para = opts.mitigations.graphene = true;
    for (const std::uint64_t n :
         {1ULL << 40, 80000000000000ULL, 4000000000000000000ULL}) {
        hammer::CombinedCounts counts;
        counts.comra = n / 4;
        counts.simra = n / 4;
        counts.rowHammer = n;
        const Program programs[] = {
            hammer::doubleSidedRowHammer(0, 32, 34, n, t),
            hammer::comraHammer(0, 32, 34, n, t),
            hammer::simraHammer(0, 32, 38, n, t),
            hammer::combinedPattern(0, 32, 34, 32, 34, 32, 38, counts, t),
            hammer::trrBypassPattern(0, {32, 34}, 4, false, n / 156 + 1,
                                     t),
            hammer::trrSimraPattern(0, 32, 38, n / 78 + 1, t),
        };
        for (const Program &p : programs) {
            const LintResult r = lintProgram(p, cfg, opts);
            EXPECT_GE(r.duration, 0) << "trip count " << n;
            EXPECT_GE(summarizeEffects(p, cfg).duration, 0);
        }
    }

    // Each loop fits in Time; their sum does not.
    hammer::CombinedCounts counts;
    counts.comra = counts.simra = 20000000000000ULL;
    counts.rowHammer = 80000000000000ULL;
    const Program sum =
        hammer::combinedPattern(0, 32, 34, 32, 34, 32, 38, counts, t);
    EXPECT_EQ(lintProgram(sum, cfg).duration,
              std::numeric_limits<Time>::max());
}

// ---- static disturbance-effect prediction ------------------------------

class EffectsFamily : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EffectsFamily, HammerAboveThresholdIsLikely)
{
    const auto cfg = smallConfig(GetParam());
    const auto hc = static_cast<std::uint64_t>(cfg.profile.rhMin);
    hammer::PatternTimings t;
    const auto p = hammer::doubleSidedRowHammer(0, 32, 34, 4 * hc, t);

    LintOptions opts;
    opts.effects = true;
    EffectReport report;
    const auto r = lintProgram(p, cfg, opts, &report);

    EXPECT_TRUE(has(r, Code::DisturbanceLikely));
    EXPECT_FALSE(has(r, Code::DisturbanceImpossible));
    EXPECT_TRUE(report.anyLikely);
    ASSERT_FALSE(report.victims.empty());
    // The sandwiched row takes the most damage.
    const VictimPrediction &top = report.victims.front();
    EXPECT_EQ(top.victimPhys, 33u);
    EXPECT_TRUE(top.doubleSided);
    EXPECT_EQ(top.verdict, Verdict::Likely);
    EXPECT_GT(top.optimisticDamage, 1.0);
    EXPECT_EQ(top.dominantClass, dram::TechClass::Conventional);
}

TEST_P(EffectsFamily, HammerFarBelowThresholdIsImpossible)
{
    const auto cfg = smallConfig(GetParam());
    const auto hc = static_cast<std::uint64_t>(cfg.profile.rhMin);
    // ~1% of HC_first, kept above the hammer-intent floor so the
    // predictor treats the program as a (doomed) attack.
    const std::uint64_t h =
        std::max<std::uint64_t>(hc / 100, kHammerIntentCloses);
    hammer::PatternTimings t;
    const auto p = hammer::doubleSidedRowHammer(0, 32, 34, h, t);

    LintOptions opts;
    opts.effects = true;
    EffectReport report;
    const auto r = lintProgram(p, cfg, opts, &report);

    EXPECT_FALSE(has(r, Code::DisturbanceLikely));
    EXPECT_TRUE(has(r, Code::DisturbanceImpossible));
    EXPECT_FALSE(report.anyLikely);
    EXPECT_GE(report.hottestCloses, kHammerIntentCloses);
    for (const VictimPrediction &v : report.victims) {
        EXPECT_EQ(v.verdict, Verdict::Impossible);
        EXPECT_LT(v.optimisticDamage, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(CalibratedFamilies, EffectsFamily,
                         ::testing::Values("HMA81GU7AFR8N-UH",
                                           "75TT21NUS1R8-4"));

TEST(Effects, DefaultLintLeavesPredictorOff)
{
    hammer::PatternTimings t;
    const auto p = hammer::doubleSidedRowHammer(0, 32, 34, 200000, t);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_FALSE(has(r, Code::DisturbanceLikely));
    EXPECT_FALSE(has(r, Code::DisturbanceImpossible));
}

// ---- refresh cadence ---------------------------------------------------

TEST(Lint, RefreshCadenceSparseOnClusteredRefs)
{
    Program p;
    p.ref(kT.tRFC).ref(kT.tRFC).ref(kT.tRFC);
    p.loopBegin(2000000).act(0, 1, kT.tRP).pre(0, kT.tRAS).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    // REFs exist, so the window diagnostic steps aside for the
    // cadence one: all the refresh happens up front, leaving a
    // ~100 ms unrefreshed tail.
    EXPECT_TRUE(has(r, Code::RefreshCadenceSparse));
    EXPECT_FALSE(has(r, Code::RefreshWindowExceeded));
}

TEST(Lint, EvenRefCadenceIsNotSparse)
{
    Program p;
    p.loopBegin(10000).ref(kT.tREFI).loopEnd();
    const auto r = lintProgram(p, smallConfig());
    // 78 ms of runtime, but REFs paced at tREFI stay inside the
    // nominal 8192-per-tREFW budget (plus slack).
    EXPECT_FALSE(has(r, Code::RefreshCadenceSparse));
    EXPECT_FALSE(has(r, Code::RefreshWindowExceeded));
}

// ---- diagnostic flood cap ----------------------------------------------

TEST(Lint, DiagFloodCapsRepeatedCodes)
{
    Program p;
    for (int i = 0; i < 100; ++i)
        p.pre(0, kT.tRP);
    const auto r = lintProgram(p, smallConfig());
    EXPECT_EQ(countCode(r, Code::PreOnIdleBank), 8u);
    EXPECT_EQ(countCode(r, Code::DiagFlood), 1u);
    EXPECT_EQ(r.suppressed, 92u);
    const auto it = std::find_if(
        r.diags.begin(), r.diags.end(),
        [](const Diag &d) { return d.code == Code::DiagFlood; });
    ASSERT_NE(it, r.diags.end());
    EXPECT_NE(it->message.find("92 more"), std::string::npos);

    // Cap 0 disables the limiter entirely.
    LintOptions opts;
    opts.maxRepeatsPerCode = 0;
    const auto all = lintProgram(p, smallConfig(), opts);
    EXPECT_EQ(countCode(all, Code::PreOnIdleBank), 100u);
    EXPECT_EQ(countCode(all, Code::DiagFlood), 0u);
    EXPECT_EQ(all.suppressed, 0u);
}

// ---- reporters ---------------------------------------------------------

std::string
renderWith(void (*fn)(const LintResult &, const Program &, std::FILE *),
           const LintResult &r, const Program &p)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    fn(r, p, f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

LintResult
sampleResult()
{
    LintResult r;
    r.duration = units::fromNs(100);
    r.diags.push_back({Code::PreOnIdleBank, Severity::Warning, 0,
                       "say \"no\"\nto stray PREs"});
    r.diags.push_back({Code::DisturbanceLikely, Severity::Note, 1,
                       "backslash \\ and tab\t"});
    return r;
}

Program
sampleProgram()
{
    Program p;
    p.act(0, 5, kT.tRP).pre(0, kT.tRAS);
    return p;
}

TEST(LintReport, TableGolden)
{
    const std::string out =
        renderWith(printReport, sampleResult(), sampleProgram());
    EXPECT_NE(out.find("pre-on-idle-bank"), std::string::npos);
    EXPECT_NE(out.find("disturbance-likely"), std::string::npos);
    EXPECT_NE(out.find("ACT b0 r5"), std::string::npos);
    EXPECT_NE(out.find("2 instruction(s), duration 0.100 us: "
                       "0 error(s), 1 warning(s), 1 note(s)"),
              std::string::npos);
}

TEST(LintReport, JsonEscapesQuotesAndNewlines)
{
    const std::string out =
        renderWith(printJson, sampleResult(), sampleProgram());
    EXPECT_NE(out.find("\"warnings\":1"), std::string::npos);
    EXPECT_NE(out.find("\"notes\":1"), std::string::npos);
    EXPECT_NE(out.find("say \\\"no\\\"\\nto stray PREs"),
              std::string::npos);
    EXPECT_NE(out.find("backslash \\\\ and tab\\t"), std::string::npos);
    // Raw control characters must never reach the document.
    EXPECT_EQ(out.find('\t'), std::string::npos);
}

TEST(LintReport, SarifShape)
{
    const std::string out =
        renderWith(printSarif, sampleResult(), sampleProgram());

    // SARIF 2.1.0 envelope.
    EXPECT_NE(out.find("sarif-schema-2.1.0.json"), std::string::npos);
    EXPECT_NE(out.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"pud-lint\""), std::string::npos);

    // Rules in first-use order, referenced by index.
    EXPECT_NE(out.find("\"id\":\"pre-on-idle-bank\""), std::string::npos);
    EXPECT_NE(out.find("\"id\":\"disturbance-likely\""),
              std::string::npos);
    EXPECT_NE(out.find("\"ruleId\":\"pre-on-idle-bank\",\"ruleIndex\":0"),
              std::string::npos);
    EXPECT_NE(
        out.find("\"ruleId\":\"disturbance-likely\",\"ruleIndex\":1"),
        std::string::npos);
    EXPECT_NE(out.find("\"defaultConfiguration\":{\"level\":\"warning\"}"),
              std::string::npos);

    // Results: levels, escaped message, synthetic artifact location.
    EXPECT_NE(out.find("\"level\":\"warning\""), std::string::npos);
    EXPECT_NE(out.find("say \\\"no\\\"\\nto stray PREs"),
              std::string::npos);
    EXPECT_NE(out.find("\"uri\":\"bender:///program\""),
              std::string::npos);
    EXPECT_NE(out.find("\"startLine\":1"), std::string::npos);
    EXPECT_NE(out.find("\"startLine\":2"), std::string::npos);

    // The document is at least brace-balanced.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(LintReport, FloodedCountsStayVisibleToSummariesAndWerror)
{
    // Regression: the flood cap trims the *listing*, never the run
    // summary or the exit decision.  100 warnings capped at 8 visible
    // sites must still total 100 in every reporter and in the counts
    // --werror consults.
    Program warn_p;
    for (int i = 0; i < 100; ++i)
        warn_p.pre(0, kT.tRP);
    const auto w = lintProgram(warn_p, smallConfig());
    EXPECT_EQ(w.count(Severity::Warning), 8u);
    EXPECT_EQ(w.suppressedBySeverity[static_cast<std::size_t>(
                  Severity::Warning)],
              92u);
    EXPECT_EQ(w.totalCount(Severity::Warning), 100u);
    EXPECT_TRUE(w.clean());

    const std::string json = renderWith(printJson, w, warn_p);
    EXPECT_NE(json.find("\"warnings\":100"), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\":{\"total\":92"),
              std::string::npos);

    const std::string sarif = renderWith(printSarif, w, warn_p);
    EXPECT_NE(sarif.find("\"suppressedByFloodCap\":92"),
              std::string::npos);
    EXPECT_NE(sarif.find("\"suppressedWarnings\":92"),
              std::string::npos);

    const std::string table = renderWith(printReport, w, warn_p);
    EXPECT_NE(table.find("100 warning(s)"), std::string::npos);
    EXPECT_NE(table.find("92 suppressed"), std::string::npos);

    // Errors past the cap must still fail clean(): a flood of
    // suppressed protocol violations is not a clean program.
    Program err_p;
    for (int i = 0; i < 20; ++i)
        err_p.act(0, 1 << 20, kT.tRC).pre(0, kT.tRAS);
    LintOptions opts;
    opts.maxRepeatsPerCode = 4;
    const auto e = lintProgram(err_p, smallConfig(), opts);
    EXPECT_EQ(e.count(Severity::Error), 4u);
    EXPECT_EQ(e.totalCount(Severity::Error), 20u);
    EXPECT_FALSE(e.clean());
}

} // namespace
