/**
 * @file
 * Tests for the fleet-scale sweep pipeline: shard planning, streaming
 * sketch sweeps, and checkpoint/resume.
 *
 * The measures here are cheap deterministic functions of (module seed,
 * victim) rather than real hammering -- the properties under test are
 * orchestration invariants (slot alignment, jobs-determinism,
 * resume bit-equivalence), not disturbance physics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hammer/hcfirst.h"
#include "hammer/population.h"
#include "obs/metrics.h"

namespace {

using namespace pud;
using namespace pud::hammer;

PopulationConfig
tinyPopulation(int modules = 4)
{
    PopulationConfig cfg;
    cfg.moduleId = "HMA81GU7AFR8N-UH";
    cfg.modules = modules;
    cfg.victimsPerSubarray = 2;
    cfg.rowsPerSubarray = 64;
    cfg.seed = 7;
    return cfg;
}

/**
 * Deterministic stand-in for an HC_first measure: distinguishes module
 * instances through their per-module seed and victims through the row
 * id, and reports kNoFlip for every fourth victim so the NaN/dropped
 * path is exercised.
 */
std::uint64_t
fakeMeasure(ModuleTester &t, dram::RowId v)
{
    if (v % 4 == 3)
        return kNoFlip;
    return t.device().config().seed * 100000 + v;
}

// ---------------------------------------------------------------------------
// Shard planning (slot alignment audit, incl. empty modules)
// ---------------------------------------------------------------------------

TEST(PlanShards, ModuleGranularityCoversSlotsInOrder)
{
    const PopulationConfig cfg = tinyPopulation(3);
    const std::size_t victims = populationVictims(cfg).size();
    ASSERT_GT(victims, 0u);

    const auto shards = planPopulationShards(cfg, victims);
    ASSERT_EQ(shards.size(), 3u);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].module, static_cast<int>(i));
        EXPECT_EQ(shards[i].victimBegin, 0u);
        EXPECT_EQ(shards[i].victimEnd, victims);
        EXPECT_EQ(shards[i].slotBase, i * victims);
    }
}

/**
 * Regression guard for the empty-module audit: a module with no
 * victims must still produce exactly one shard, *in module order*, so
 * shard index stays aligned with slot order and telemetry reports
 * every instance.
 */
TEST(PlanShards, EmptyModulesKeepShardOrderAlignedWithSlots)
{
    PopulationConfig cfg = tinyPopulation(5);
    cfg.victimsPerSubarray = 0;
    EXPECT_TRUE(populationVictims(cfg).empty());

    const auto shards = planPopulationShards(cfg, 0);
    ASSERT_EQ(shards.size(), 5u);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].module, static_cast<int>(i));
        EXPECT_EQ(shards[i].victimBegin, 0u);
        EXPECT_EQ(shards[i].victimEnd, 0u);
        EXPECT_EQ(shards[i].slotBase, 0u);
    }
}

TEST(PlanShards, ChunkLargerThanVictimListYieldsOneFullChunk)
{
    PopulationConfig cfg = tinyPopulation(2);
    cfg.perVictimChunks = true;
    cfg.victimChunk = 1000;  // far more than the victim list
    const std::size_t victims = populationVictims(cfg).size();
    ASSERT_GT(victims, 0u);
    ASSERT_LT(victims, 1000u);

    const auto shards = planPopulationShards(cfg, victims);
    ASSERT_EQ(shards.size(), 2u);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].module, static_cast<int>(i));
        EXPECT_EQ(shards[i].victimBegin, 0u);
        EXPECT_EQ(shards[i].victimEnd, victims);
        EXPECT_EQ(shards[i].slotBase, i * victims);
    }
}

TEST(PlanShards, ChunkedSlotBasesAreMonotonicAndExhaustive)
{
    PopulationConfig cfg = tinyPopulation(3);
    cfg.perVictimChunks = true;
    cfg.victimChunk = 5;
    const std::size_t victims = populationVictims(cfg).size();
    ASSERT_GT(victims, 5u);  // force several chunks per module

    const auto shards = planPopulationShards(cfg, victims);
    std::size_t expected_slot = 0;
    int last_module = -1;
    for (const ShardPlan &s : shards) {
        EXPECT_GE(s.module, last_module);
        last_module = s.module;
        EXPECT_LT(s.victimBegin, s.victimEnd);
        EXPECT_LE(s.victimEnd - s.victimBegin, 5u);
        // Chunks tile [0, victims) per module; slotBase tracks exactly.
        EXPECT_EQ(s.slotBase, expected_slot);
        expected_slot += s.victimEnd - s.victimBegin;
    }
    EXPECT_EQ(expected_slot, 3 * victims);
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST(Fingerprint, SensitiveToEveryWorkDefiningKnob)
{
    const PopulationConfig base = tinyPopulation();
    const std::uint64_t fp = populationFingerprint(base, 2);

    EXPECT_EQ(populationFingerprint(base, 2), fp);  // stable

    PopulationConfig c = base;
    c.seed = 8;
    EXPECT_NE(populationFingerprint(c, 2), fp);
    c = base;
    c.modules += 1;
    EXPECT_NE(populationFingerprint(c, 2), fp);
    c = base;
    c.victimsPerSubarray += 1;
    EXPECT_NE(populationFingerprint(c, 2), fp);
    c = base;
    c.oddOnly = true;
    EXPECT_NE(populationFingerprint(c, 2), fp);
    c = base;
    c.moduleId = "K4A8G085WB-BCPB";
    EXPECT_NE(populationFingerprint(c, 2), fp);
    c = base;
    c.rowsPerSubarray = 128;
    EXPECT_NE(populationFingerprint(c, 2), fp);
    c = base;
    c.perVictimChunks = true;
    EXPECT_NE(populationFingerprint(c, 2), fp);
    EXPECT_NE(populationFingerprint(base, 3), fp);

    // jobs must NOT enter the fingerprint: a checkpoint written at one
    // parallelism must resume at any other.
    c = base;
    c.jobs = 8;
    EXPECT_EQ(populationFingerprint(c, 2), fp);
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

TEST(Sweep, SketchAgreesWithExpectedSamples)
{
    const PopulationConfig cfg = tinyPopulation(2);
    const auto victims = populationVictims(cfg);
    const SweepResult r = sweepPopulation(cfg, {fakeMeasure});

    ASSERT_EQ(r.sketches.size(), 1u);
    std::uint64_t finite = 0, noflip = 0;
    double sum = 0.0;
    for (int m = 0; m < cfg.modules; ++m) {
        const auto dev = populationDeviceConfig(cfg, m);
        for (dram::RowId v : victims) {
            if (v % 4 == 3) {
                ++noflip;
            } else {
                ++finite;
                sum += static_cast<double>(dev.seed * 100000 + v);
            }
        }
    }
    EXPECT_EQ(r.sketches[0].count(), finite);
    EXPECT_EQ(r.sketches[0].dropped(), noflip);
    EXPECT_NEAR(r.sketches[0].sum(), sum, 1e-6);
    EXPECT_EQ(r.totalShards, 2u);
    EXPECT_EQ(r.resumedShards, 0u);
    EXPECT_EQ(r.telemetry.shards.size(), 2u);
    EXPECT_EQ(r.telemetry.workUnits(), victims.size() * 2);
}

TEST(Sweep, ByteIdenticalAcrossJobs)
{
    PopulationConfig cfg = tinyPopulation(6);
    cfg.jobs = 1;
    const std::string baseline =
        sweepPopulation(cfg, {fakeMeasure}).sketches[0].serialize();
    for (int jobs : {2, 8}) {
        cfg.jobs = jobs;
        EXPECT_EQ(
            sweepPopulation(cfg, {fakeMeasure}).sketches[0].serialize(),
            baseline)
            << "jobs=" << jobs;
    }
}

/**
 * Lazy-threshold equivalence under a *real* HC_first search: a fleet
 * whose testers materialize every row up front (the pre-fleet-scale
 * behavior) must report bit-identical HC_first values to the lazy
 * default.  This is the end-to-end guarantee behind the counter-based
 * per-row RNG streams.
 */
TEST(Sweep, LazySweepMatchesEagerlyMaterializedSweep)
{
    PopulationConfig cfg = tinyPopulation(2);
    cfg.victimsPerSubarray = 1;
    ModuleTester::Options opt;
    const MeasureFn real = [&](ModuleTester &t, dram::RowId v) {
        return t.rhDouble(v, opt);
    };

    const SweepResult lazy = sweepPopulation(cfg, {real});

    PopulationConfig eager_cfg = cfg;
    eager_cfg.setup = [&](ModuleTester &t) {
        t.device().materializeAllRows();
    };
    const SweepResult eager = sweepPopulation(eager_cfg, {real});

    EXPECT_GT(lazy.sketches[0].count(), 0u)
        << "search budget found no flips; equivalence would be vacuous";
    EXPECT_EQ(lazy.sketches[0].serialize(),
              eager.sketches[0].serialize());
}

/**
 * The two reductions of the one shard loop agree: measurePopulation's
 * dense series, sliced by the shard plan, sketched per shard and
 * merged in shard order, is exactly sweepPopulation's fleet sketch.
 */
TEST(Sweep, DenseSeriesSketchedByShardMatchesSweep)
{
    ModuleTester::Options opt;
    const MeasureFn real = [&](ModuleTester &t, dram::RowId v) {
        return t.rhDouble(v, opt);
    };
    for (bool chunks : {false, true}) {
        for (int jobs : {1, 2}) {
            PopulationConfig cfg = tinyPopulation(3);
            cfg.perVictimChunks = chunks;
            cfg.victimChunk = 5;
            cfg.jobs = jobs;
            const auto series = measurePopulation(cfg, {real});
            const auto shards =
                planPopulationShards(cfg, populationVictims(cfg).size());

            stats::SampleSketch merged;
            for (const ShardPlan &sp : shards) {
                stats::SampleSketch shard;
                for (std::size_t v = sp.victimBegin; v < sp.victimEnd;
                     ++v)
                    shard.add(series[0][sp.slotBase + v - sp.victimBegin]);
                merged.merge(shard);
            }
            const SweepResult sweep = sweepPopulation(cfg, {real});
            EXPECT_GT(sweep.sketches[0].count(), 0u);
            EXPECT_EQ(merged.serialize(), sweep.sketches[0].serialize())
                << "chunks=" << chunks << " jobs=" << jobs;
        }
    }
}

/**
 * With --metrics on, a sweep's counters are a property of the work,
 * not of how shards landed on arenas: every shard starts from a fresh
 * (reset) tester, executor shape included.
 */
TEST(Sweep, MetricsSnapshotIsIdenticalAcrossJobs)
{
    PopulationConfig cfg = tinyPopulation(6);
    cfg.victimsPerSubarray = 1;
    ModuleTester::Options opt;
    const MeasureFn real = [&](ModuleTester &t, dram::RowId v) {
        return t.rhDouble(v, opt);
    };
    auto metricsAt = [&](int jobs) {
        obs::metrics().reset();
        obs::metrics().setEnabled(true);
        cfg.jobs = jobs;
        sweepPopulation(cfg, {real});
        obs::metrics().setEnabled(false);
        const std::string json =
            obs::snapshotToJson(obs::metrics().snapshot());
        obs::metrics().reset();
        return json;
    };
    const std::string serial = metricsAt(1);
    EXPECT_NE(serial.find("executor.plan_cache_misses"),
              std::string::npos);
    EXPECT_EQ(metricsAt(2), serial);
}

TEST(Sweep, EmptyPopulationProducesEmptySketches)
{
    PopulationConfig cfg = tinyPopulation(3);
    cfg.victimsPerSubarray = 0;
    const SweepResult r = sweepPopulation(cfg, {fakeMeasure});
    ASSERT_EQ(r.sketches.size(), 1u);
    EXPECT_EQ(r.sketches[0].count(), 0u);
    EXPECT_EQ(r.totalShards, 3u);  // one empty shard per module
    EXPECT_EQ(r.telemetry.workUnits(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test
{
  protected:
    std::string
    path(const char *name) const
    {
        return ::testing::TempDir() + "popckpt_" + name + "_" +
               std::to_string(::testing::UnitTest::GetInstance()
                                  ->random_seed()) +
               ".txt";
    }

    /**
     * Keep the header plus the first `records` complete shard records
     * (each is one "shard=" line followed by one "sk " line per
     * measure), plus `extra_lines` lines of the following record --
     * nonzero simulates a crash mid-append.
     */
    static void
    truncateCheckpoint(const std::string &file, std::size_t records,
                       std::size_t measures,
                       std::size_t extra_lines = 0)
    {
        std::ifstream in(file);
        ASSERT_TRUE(in);
        std::ostringstream kept;
        std::string line;
        ASSERT_TRUE(std::getline(in, line));  // header
        kept << line << '\n';
        const std::size_t keep =
            records * (1 + measures) + extra_lines;
        for (std::size_t i = 0; i < keep; ++i) {
            ASSERT_TRUE(std::getline(in, line));
            kept << line << '\n';
        }
        in.close();
        std::ofstream out(file, std::ios::trunc);
        out << kept.str();
    }
};

TEST_F(CheckpointTest, ResumeAfterPrefixTruncationIsBitIdentical)
{
    PopulationConfig cfg = tinyPopulation(5);
    cfg.jobs = 2;
    const std::string file = path("prefix");

    SweepOptions opt;
    opt.checkpointPath = file;
    const SweepResult full = sweepPopulation(cfg, {fakeMeasure}, opt);
    const std::string want = full.sketches[0].serialize();
    EXPECT_EQ(full.resumedShards, 0u);

    truncateCheckpoint(file, 2, 1);
    const SweepResult resumed =
        sweepPopulation(cfg, {fakeMeasure}, opt);
    EXPECT_EQ(resumed.resumedShards, 2u);
    EXPECT_EQ(resumed.totalShards, 5u);
    EXPECT_EQ(resumed.sketches[0].serialize(), want);
    // Resumed shard telemetry is restored from the file, not zeroed.
    EXPECT_EQ(resumed.telemetry.workUnits(),
              full.telemetry.workUnits());

    // A second resume from the now-complete file computes nothing.
    const SweepResult replay =
        sweepPopulation(cfg, {fakeMeasure}, opt);
    EXPECT_EQ(replay.resumedShards, 5u);
    EXPECT_EQ(replay.sketches[0].serialize(), want);
    std::remove(file.c_str());
}

TEST_F(CheckpointTest, TornTailRecordIsDiscardedNotFatal)
{
    PopulationConfig cfg = tinyPopulation(4);
    const std::string file = path("torn");

    SweepOptions opt;
    opt.checkpointPath = file;
    const std::string want =
        sweepPopulation(cfg, {fakeMeasure}, opt).sketches[0].serialize();

    // One complete record, then only the "shard=" line of the next --
    // exactly what a crash between the two appended lines leaves.
    truncateCheckpoint(file, 1, 1, 1);
    const SweepResult resumed =
        sweepPopulation(cfg, {fakeMeasure}, opt);
    EXPECT_EQ(resumed.resumedShards, 1u);
    EXPECT_EQ(resumed.sketches[0].serialize(), want);
    std::remove(file.c_str());
}

TEST_F(CheckpointTest, ResumeIsIdenticalAcrossJobsValues)
{
    PopulationConfig cfg = tinyPopulation(6);
    cfg.jobs = 1;
    const std::string file = path("jobs");

    SweepOptions opt;
    opt.checkpointPath = file;
    const std::string want =
        sweepPopulation(cfg, {fakeMeasure}, opt).sketches[0].serialize();

    truncateCheckpoint(file, 3, 1);
    cfg.jobs = 8;  // resume at a different parallelism
    const SweepResult resumed =
        sweepPopulation(cfg, {fakeMeasure}, opt);
    EXPECT_EQ(resumed.resumedShards, 3u);
    EXPECT_EQ(resumed.sketches[0].serialize(), want);
    std::remove(file.c_str());
}

TEST_F(CheckpointTest, MismatchedFingerprintIsFatal)
{
    PopulationConfig cfg = tinyPopulation(2);
    const std::string file = path("mismatch");

    SweepOptions opt;
    opt.checkpointPath = file;
    sweepPopulation(cfg, {fakeMeasure}, opt);

    cfg.seed = 99;  // same file, different population
    EXPECT_DEATH(sweepPopulation(cfg, {fakeMeasure}, opt),
                 "different sweep configuration");
    std::remove(file.c_str());
}

} // namespace
