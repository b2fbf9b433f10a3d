/**
 * @file
 * Tests for the multi-process popsweep supervisor and the arena-reuse
 * device reset underneath it.
 *
 * The invariants under test are the PR's determinism contract: the
 * merged fleet sketch must be byte-identical across worker counts,
 * thread counts, crashes, restarts, and kill-mid-run interruptions --
 * and identical to the single-process sweepPopulation path.  Measures
 * are cheap deterministic functions (as in test_population.cc) except
 * where a real HC_first search is needed to pin device-state
 * bit-identity.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "hammer/hcfirst.h"
#include "hammer/popsweep.h"

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

/** Deterministic stand-in measure (same shape as test_population.cc). */
std::uint64_t
fakeMeasure(ModuleTester &t, dram::RowId v)
{
    if (v % 4 == 3)
        return kNoFlip;
    return t.device().config().seed * 100000 + v;
}

/**
 * Per-test scratch path, wiped before use: a leftover directory from a
 * previous test-binary run holds *complete* checkpoints, which would
 * silently turn every assertion below into a resume-only run.
 */
std::string
scratchDir(const char *name)
{
    const std::string dir = ::testing::TempDir() + "popsweep_" +
                            std::to_string(::getpid()) + "_" + name;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string leaf = e->d_name;
            if (leaf != "." && leaf != "..")
                ::unlink((dir + "/" + leaf).c_str());
        }
        ::closedir(d);
        ::rmdir(dir.c_str());
    }
    return dir;
}

// ---------------------------------------------------------------------------
// Worker ranges
// ---------------------------------------------------------------------------

TEST(WorkerRange, TilesShardsContiguouslyAndEvenly)
{
    for (std::size_t shards : {0u, 1u, 7u, 100u}) {
        for (int workers : {1, 2, 3, 8}) {
            std::size_t expect_begin = 0;
            std::size_t smallest = shards + 1, largest = 0;
            for (int w = 0; w < workers; ++w) {
                const auto [begin, end] =
                    popsweepWorkerRange(shards, workers, w);
                EXPECT_EQ(begin, expect_begin)
                    << "shards=" << shards << " workers=" << workers
                    << " w=" << w;
                EXPECT_LE(begin, end);
                expect_begin = end;
                smallest = std::min(smallest, end - begin);
                largest = std::max(largest, end - begin);
            }
            EXPECT_EQ(expect_begin, shards);
            // Balanced: range sizes differ by at most one shard.
            EXPECT_LE(largest - smallest, 1u);
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-identity across (workers x jobs) and vs single-process
// ---------------------------------------------------------------------------

TEST(Popsweep, ByteIdenticalAcrossWorkersAndJobsVsSingleProcess)
{
    const PopulationConfig cfg = tinyPopulation(8);
    const SweepResult single = sweepPopulation(cfg, {fakeMeasure});
    const std::string want = single.sketches[0].serialize();

    for (int workers : {1, 2, 4}) {
        for (int jobs : {1, 2}) {
            PopsweepOptions opt;
            opt.dir = scratchDir(
                ("matrix_w" + std::to_string(workers) + "_j" +
                 std::to_string(jobs))
                    .c_str());
            opt.workers = workers;
            opt.jobsPerWorker = jobs;
            const PopsweepResult r =
                popsweep(cfg, {fakeMeasure}, opt);
            EXPECT_EQ(r.sweep.sketches[0].serialize(), want)
                << "workers=" << workers << " jobs=" << jobs;
            EXPECT_EQ(r.sweep.totalShards, single.totalShards);
            EXPECT_EQ(r.sweep.resumedShards, 0u);
            EXPECT_EQ(r.sweep.telemetry.shards.size(),
                      single.telemetry.shards.size());
            EXPECT_EQ(r.sweep.telemetry.workUnits(),
                      single.telemetry.workUnits());
            // Every merged shard report describes the same work as the
            // single-process one, firstSlot included (checkpoint
            // records do not store it; the merge stamps it).
            for (std::size_t i = 0; i < single.telemetry.shards.size() &&
                                    i < r.sweep.telemetry.shards.size();
                 ++i) {
                const ShardReport &got = r.sweep.telemetry.shards[i];
                const ShardReport &ref = single.telemetry.shards[i];
                EXPECT_EQ(got.module, ref.module) << "shard " << i;
                EXPECT_EQ(got.firstSlot, ref.firstSlot) << "shard " << i;
                EXPECT_EQ(got.victims, ref.victims) << "shard " << i;
                EXPECT_EQ(got.workUnits, ref.workUnits) << "shard " << i;
            }
            ASSERT_EQ(r.workers.size(),
                      static_cast<std::size_t>(workers));
            for (const WorkerReport &w : r.workers) {
                EXPECT_EQ(w.restarts, 0);
                EXPECT_GT(w.peakRssBytes, 0u);
            }
            EXPECT_GT(r.aggregateRssBytes, 0u);
        }
    }
}

TEST(Popsweep, RerunOverCompleteDirectoryResumesEverythingIdentically)
{
    const PopulationConfig cfg = tinyPopulation(6);
    PopsweepOptions opt;
    opt.dir = scratchDir("rerun");
    opt.workers = 2;

    const PopsweepResult first = popsweep(cfg, {fakeMeasure}, opt);
    const std::string want = first.sweep.sketches[0].serialize();
    EXPECT_EQ(first.sweep.resumedShards, 0u);

    // Same directory again: every worker must restore its whole range
    // from its own checkpoint and compute nothing.
    const PopsweepResult again = popsweep(cfg, {fakeMeasure}, opt);
    EXPECT_EQ(again.sweep.sketches[0].serialize(), want);
    EXPECT_EQ(again.sweep.resumedShards, again.sweep.totalShards);
}

// ---------------------------------------------------------------------------
// Crash / restart
// ---------------------------------------------------------------------------

/**
 * A measure that kills its own worker process the first time it runs
 * anywhere in the fleet (marker file = "already crashed once").  After
 * the restart it behaves exactly like fakeMeasure, so the final result
 * must be bit-identical to an undisturbed run.
 */
MeasureFn
crashOnceMeasure(const std::string &marker)
{
    return [marker](ModuleTester &t, dram::RowId v) -> std::uint64_t {
        if (::access(marker.c_str(), F_OK) != 0) {
            const int fd =
                ::open(marker.c_str(), O_CREAT | O_WRONLY, 0644);
            if (fd >= 0)
                ::close(fd);
            ::_exit(42);
        }
        return fakeMeasure(t, v);
    };
}

TEST(Popsweep, CrashedWorkerIsRestartedAndResultIsIdentical)
{
    const PopulationConfig cfg = tinyPopulation(6);
    const std::string want =
        sweepPopulation(cfg, {fakeMeasure}).sketches[0].serialize();

    PopsweepOptions opt;
    opt.dir = scratchDir("crash");
    opt.workers = 2;
    const std::string marker = opt.dir + ".crashed";
    std::remove(marker.c_str());

    const PopsweepResult r =
        popsweep(cfg, {crashOnceMeasure(marker)}, opt);
    EXPECT_EQ(r.sweep.sketches[0].serialize(), want);
    int restarts = 0;
    for (const WorkerReport &w : r.workers)
        restarts += w.restarts;
    EXPECT_GE(restarts, 1);
    std::remove(marker.c_str());
}

TEST(Popsweep, RestartBudgetExhaustionIsFatal)
{
    const PopulationConfig cfg = tinyPopulation(2);
    const MeasureFn always_crash = [](ModuleTester &,
                                      dram::RowId) -> std::uint64_t {
        ::_exit(7);
    };
    PopsweepOptions opt;
    opt.dir = scratchDir("budget");
    opt.workers = 1;
    opt.maxRestartsPerWorker = 1;
    EXPECT_DEATH(popsweep(cfg, {always_crash}, opt),
                 "exceeded 1 restarts");
}

// ---------------------------------------------------------------------------
// Kill-mid-run: atomic commits leave no torn checkpoint
// ---------------------------------------------------------------------------

/**
 * SIGKILL a process in the middle of a checkpointed sweep -- at a
 * random point relative to its commit cadence -- and require that the
 * surviving file is a clean canonical prefix (torn == false), and that
 * resuming from it reproduces the undisturbed result bit-identically.
 * This is the pin on the write-temp + fsync + rename append path: with
 * plain in-place appends this test catches half-written tail records.
 */
TEST(Popsweep, KillMidRunLeavesUntornCheckpointAndResumesIdentically)
{
    PopulationConfig cfg = tinyPopulation(200);
    const MeasureFn slow = [](ModuleTester &t,
                              dram::RowId v) -> std::uint64_t {
        ::usleep(1000);  // ~12ms/shard: the run outlives the kill
        return fakeMeasure(t, v);
    };
    const std::string file =
        scratchDir("killmid") + ".ckpt";
    std::remove(file.c_str());

    std::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        SweepOptions so;
        so.checkpointPath = file;
        sweepPopulation(cfg, {slow}, so);
        ::_exit(0);
    }
    // Past the ~1s commit-cadence floor, mid-run: at least one commit
    // has happened and many shards are still outstanding.
    std::this_thread::sleep_for(std::chrono::milliseconds(1600));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    const CheckpointScan scan = scanCheckpoint(file);
    ASSERT_TRUE(scan.valid);
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.fingerprint, populationFingerprint(cfg, 1));
    EXPECT_EQ(scan.measures, 1u);
    EXPECT_EQ(scan.shards, 200u);
    EXPECT_EQ(scan.base, 0u);
    EXPECT_GT(scan.records, 0u);
    EXPECT_LT(scan.records, 200u);

    const std::string want =
        sweepPopulation(cfg, {fakeMeasure}).sketches[0].serialize();
    SweepOptions so;
    so.checkpointPath = file;
    const SweepResult resumed = sweepPopulation(cfg, {slow}, so);
    EXPECT_EQ(resumed.resumedShards, scan.records);
    EXPECT_EQ(resumed.sketches[0].serialize(), want);
    std::remove(file.c_str());
}

// ---------------------------------------------------------------------------
// Arena reuse: Device::reset vs fresh construction
// ---------------------------------------------------------------------------

/**
 * The arena pool in sweepPopulation replaces per-shard ModuleTester
 * construction with reset(seed) on a dirty tester.  That is only legal
 * if a reset device is observationally identical to a freshly
 * constructed one -- including the per-row RNG streams behind lazy
 * weak-cell materialization -- under a *real* HC_first search.
 */
TEST(ArenaReuse, ResetTesterMatchesFreshConstructionBitIdentically)
{
    PopulationConfig cfg = tinyPopulation(2);
    cfg.victimsPerSubarray = 1;
    const dram::DeviceConfig dev_a = populationDeviceConfig(cfg, 0);
    const dram::DeviceConfig dev_b = populationDeviceConfig(cfg, 1);
    ASSERT_NE(dev_a.seed, dev_b.seed);

    ModuleTester::Options opt;
    ModuleTester fresh(dev_a);
    const std::vector<dram::RowId> victims = fresh.sampleVictims(1);
    ASSERT_FALSE(victims.empty());

    std::vector<std::uint64_t> want;
    for (dram::RowId v : victims)
        want.push_back(fresh.rhDouble(v, opt));
    const std::size_t want_rows = fresh.device().populatedRowCount();
    ASSERT_GT(want_rows, 0u);

    // Dirty an arena with a different module instance, then reset it
    // to module 0's seed: every HC_first and the materialized-row
    // footprint must match the fresh tester exactly.
    ModuleTester reused(dev_b);
    for (dram::RowId v : victims)
        reused.rhDouble(v, opt);
    reused.reset(dev_a.seed);
    EXPECT_EQ(reused.device().populatedRowCount(), 0u);
    for (std::size_t i = 0; i < victims.size(); ++i)
        EXPECT_EQ(reused.rhDouble(victims[i], opt), want[i])
            << "victim " << victims[i];
    EXPECT_EQ(reused.device().populatedRowCount(), want_rows);

    // Reset is repeatable: a second pass over the same seed from the
    // same arena reproduces the same sequence again.
    reused.reset(dev_a.seed);
    for (std::size_t i = 0; i < victims.size(); ++i)
        EXPECT_EQ(reused.rhDouble(victims[i], opt), want[i]);

    // The executor restarts too: a reset arena compiles and counts
    // exactly what a fresh tester does.
    const bender::ExecStats &got = reused.bench().executor().stats();
    const bender::ExecStats &ref = fresh.bench().executor().stats();
    EXPECT_EQ(got.planCacheHits, ref.planCacheHits);
    EXPECT_EQ(got.planCacheMisses, ref.planCacheMisses);
    EXPECT_EQ(got.fastPathIterations, ref.fastPathIterations);
    EXPECT_EQ(got.phaseBreaks, ref.phaseBreaks);
}

/**
 * End-to-end arena guarantee: the pooled sweep (which reuses testers
 * across shards within a job) must equal a per-victim-chunked sweep's
 * contract of identically-seeded independence -- here pinned by
 * comparing a real-search sweep at jobs=1 and jobs=2, where jobs=2
 * makes two arenas serve interleaved shard subsets.
 */
TEST(ArenaReuse, PooledSweepIsByteIdenticalAcrossJobs)
{
    PopulationConfig cfg = tinyPopulation(4);
    cfg.victimsPerSubarray = 1;
    ModuleTester::Options opt;
    const MeasureFn real = [&](ModuleTester &t, dram::RowId v) {
        return t.rhDouble(v, opt);
    };
    cfg.jobs = 1;
    const std::string want =
        sweepPopulation(cfg, {real}).sketches[0].serialize();
    cfg.jobs = 2;
    EXPECT_EQ(sweepPopulation(cfg, {real}).sketches[0].serialize(),
              want);
}

} // namespace
