/**
 * @file
 * Fleet-scale population sweeps: streaming sketches + checkpoint /
 * resume.
 *
 * measurePopulation (experiment.h) returns whole-population sample
 * vectors -- O(modules * victims) memory -- and loses everything if
 * the process dies mid-run.  sweepPopulation runs the same shard loop
 * (population.cc) with a fleet-scale reduction: each shard reduces its
 * measurements into per-measure SampleSketches, completed shards are
 * appended to a checkpoint file in canonical shard order, and a
 * resumed run folds the recorded prefix back in and computes only the
 * remainder.
 *
 * Determinism contract: the fleet sketch is the shard sketches merged
 * in *shard index order* (never completion order), and every shard's
 * sketch depends only on its own identically-seeded tester.  The
 * result is therefore bit-identical across `--jobs` values and across
 * any interrupt/resume split -- floating-point summation order is
 * fully pinned even though it is not associative.
 */

#ifndef PUD_HAMMER_POPULATION_H
#define PUD_HAMMER_POPULATION_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hammer/experiment.h"
#include "stats/sketch.h"

namespace pud::hammer {

/** Knobs of one sweepPopulation call beyond the PopulationConfig. */
struct SweepOptions
{
    /**
     * Checkpoint file; empty disables checkpointing.  An existing file
     * must carry the same configuration fingerprint (mismatch is
     * fatal: silently mixing populations would corrupt the fleet
     * statistics).  Completed shard records are committed to the file
     * as the sweep runs -- every commit is write-temp + fsync + rename,
     * so the file on disk is always a *complete* canonical prefix and a
     * crashed process (power loss included) never re-reads its own torn
     * write.  An interrupted run loses at most the shards still in
     * flight plus the commit batch being accumulated.
     */
    std::string checkpointPath;

    /** Relative quantile error bound of the per-measure sketches. */
    double sketchAlpha = 0.01;

    /**
     * Global shard range [shardBegin, min(shardEnd, totalShards)) this
     * call computes; the default covers the whole plan.  Multi-process
     * drivers (hammer/popsweep.h) give each worker a contiguous range
     * and its own checkpoint file; record indices in the file stay
     * *global*, so the supervisor can merge worker files in canonical
     * shard order without any renumbering.
     */
    std::size_t shardBegin = 0;
    std::size_t shardEnd = static_cast<std::size_t>(-1);
};

/** One completed shard as stored in (and restored from) a checkpoint. */
struct ShardRecord
{
    ShardReport report;
    std::vector<stats::SampleSketch> sketches;  //!< one per measure
};

/**
 * Cheap structural scan of a checkpoint file: header fields plus the
 * number of complete records, without deserializing sketch payloads
 * into full sketches for the caller.  `torn` reports trailing bytes
 * after the last complete record -- with atomic commits this indicates
 * outside interference (truncation, concurrent writers), not a crash,
 * and the supervisor surfaces it.  `valid` is false when the file is
 * missing or the header does not parse.
 */
struct CheckpointScan
{
    bool valid = false;
    std::uint64_t fingerprint = 0;
    std::size_t measures = 0;
    std::size_t shards = 0;  //!< total planned shards (header)
    std::size_t base = 0;    //!< first global shard index (header)
    std::size_t records = 0; //!< complete records present
    bool torn = false;
};

CheckpointScan scanCheckpoint(const std::string &path);

/**
 * Atomically replace `path` with `contents`: write `path + ".tmp"`,
 * fsync, rename over the destination (POSIX rename is atomic), then
 * best-effort fsync the containing directory.  Readers only ever see
 * the old or the new complete file.  Shared by the checkpoint writer
 * and the popsweep sidecar files.
 */
void atomicWriteFile(const std::string &path,
                     const std::string &contents);

/**
 * Load the valid canonical prefix of a checkpoint: records for global
 * shard indices [base, base + result.size()), in order.  Fatal when
 * the file exists but was written by a different sweep configuration;
 * an absent or empty file yields an empty vector.  Exposed so the
 * popsweep supervisor can fold completed worker files into the fleet
 * merge without rerunning any work.
 */
std::vector<std::pair<std::size_t, ShardRecord>>
loadCheckpointRecords(const std::string &path, std::uint64_t fingerprint,
                      std::size_t measures, std::size_t total_shards);

/** What one sweepPopulation call produced. */
struct SweepResult
{
    /**
     * One fleet sketch per MeasureFn.  kNoFlip measurements enter as
     * NaN and are therefore counted in dropped(), mirroring the NaN
     * convention of measurePopulation.
     */
    std::vector<stats::SampleSketch> sketches;

    PopulationTelemetry telemetry;

    /** Shards restored from the checkpoint instead of computed. */
    std::size_t resumedShards = 0;

    /** Total planned shards (resumed + computed). */
    std::size_t totalShards = 0;
};

/**
 * The canonical fleet merge, shared by sweepPopulation and popsweep:
 * fold `records` (global shard indices, ascending) into `into`, whose
 * sketches must already hold one (possibly empty) sketch per measure.
 * Sketches merge in shard order, which pins the floating-point
 * summation order; reports are appended to the telemetry with
 * firstSlot stamped from `shards` (popckpt1 records do not store it),
 * and totalShards counts the merged records.  Fatal on out-of-order
 * indices or a record with the wrong number of sketches.
 */
void mergeShardRecords(
    const std::vector<ShardPlan> &shards,
    const std::vector<std::pair<std::size_t, ShardRecord>> &records,
    SweepResult &into);

/**
 * Stable hash of everything that determines the sweep's work: module
 * family, population size, victim sampling, seeds, sharding, and the
 * measure count.  Guards checkpoint files against being resumed under
 * a different configuration.
 */
std::uint64_t populationFingerprint(const PopulationConfig &cfg,
                                    std::size_t measures);

/**
 * Run `measures` over the whole module population, reducing into
 * streaming sketches shard by shard (memory is O(shards + buckets),
 * never O(victims)).  See SweepOptions for checkpointing.
 */
SweepResult sweepPopulation(const PopulationConfig &cfg,
                            const std::vector<MeasureFn> &measures,
                            const SweepOptions &opt = {});

} // namespace pud::hammer

#endif // PUD_HAMMER_POPULATION_H
