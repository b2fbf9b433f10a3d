/**
 * @file
 * Population-level experiment runners: instantiate module populations,
 * sweep victims, and run the §7 TRR experiment.  These are the
 * building blocks every bench binary uses.
 */

#ifndef PUD_HAMMER_EXPERIMENT_H
#define PUD_HAMMER_EXPERIMENT_H

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "hammer/tester.h"

namespace pud::hammer {

/** Scale knobs for a module-family population run. */
struct PopulationConfig
{
    std::string moduleId;

    /** Module instances to simulate (Table 2 column #Modules). */
    int modules = 1;

    /** Victims sampled per subarray (the paper tests all rows). */
    RowId victimsPerSubarray = 12;

    /** Restrict to rows sandwichable by double-sided SiMRA groups. */
    bool oddOnly = false;

    std::uint64_t seed = 1;

    /** Geometry override hook (0 = default). */
    RowId rowsPerSubarray = 0;

    // ---- parallel execution (pud::exec) ------------------------------

    /**
     * Worker threads for the population sweep; 1 is the legacy serial
     * path (no threads created), <= 0 means hardware concurrency.
     * Results are bit-identical for every value: work is sharded at
     * module granularity (each shard runs on a tester reset to its
     * module's seed, exactly the serial per-module loop body) and
     * every measurement lands in a slot keyed by (module, victim,
     * measure), so scheduling never affects output.
     */
    int jobs = 1;

    /**
     * Opt-in finer sharding: split each module's victim list into
     * chunks of `victimChunk` and give every chunk a *fresh*
     * identically-seeded tester.  Chunk boundaries depend only on
     * `victimChunk`, never on `jobs`, so output is still bit-identical
     * across jobs values -- but chunked results can differ from
     * module-granularity results because each chunk starts from a
     * pristine device instead of inheriting intra-module history.
     */
    bool perVictimChunks = false;

    /** Victims per chunk when perVictimChunks is set. */
    RowId victimChunk = 8;

    /** Optional per-tester setup (e.g. temperature), run per shard. */
    std::function<void(ModuleTester &)> setup;
};

/** Wall-time and size of one parallel shard, for bench telemetry. */
struct ShardReport
{
    int module = 0;             //!< module instance index
    std::size_t firstSlot = 0;  //!< global victim slot of first unit
    std::size_t victims = 0;    //!< victims measured by this shard
    std::size_t workUnits = 0;  //!< victims * measures
    double seconds = 0.0;       //!< shard wall time

    /** ACT commands issued by the shard's device (hammers/sec base). */
    std::uint64_t acts = 0;

    /**
     * Rows whose weak-cell population the shard's device materialized.
     * The lazy-row RSS argument at fleet scale rests on this staying a
     * small constant per module; benches report the fleet maximum.
     */
    std::size_t populatedRows = 0;

    // Executor counters accumulated by the shard's tester
    // (bender::ExecStats): how much of the work took the loop
    // fast-path and how often a program repeated the last run's shape.
    std::uint64_t fastPathIterations = 0;
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
};

// ---- sweep planning (pure; shared by runner, benches, and tests) -----

/**
 * One planned parallel work unit: a module instance, or a victim chunk
 * of one.  Shards are ordered by (module, victimBegin), which is also
 * slot order -- planPopulationShards guarantees `slotBase` increases
 * monotonically over the returned vector, so shard index, report
 * index, and result-slot ranges all agree regardless of how shards are
 * later scheduled across jobs.
 */
struct ShardPlan
{
    int module = 0;
    std::size_t victimBegin = 0;  //!< index into the module victim list
    std::size_t victimEnd = 0;
    std::size_t slotBase = 0;     //!< global slot of victimBegin
};

/** The per-module DeviceConfig a sweep builds for `module`. */
dram::DeviceConfig populationDeviceConfig(const PopulationConfig &cfg,
                                          int module);

/**
 * The victim list of *every* module instance in the population: victim
 * sampling is geometry-only (hammer/enumerate.h) and the geometry is
 * shared by all instances, so one enumeration covers the whole fleet.
 * Global slot order is (module, victim, measure), i.e. module m's
 * victim v occupies slot m * victims.size() + v.
 */
std::vector<RowId> populationVictims(const PopulationConfig &cfg);

/**
 * Shard the sweep: one shard per module, or fixed-size victim chunks
 * when `cfg.perVictimChunks` is set (chunk boundaries depend only on
 * `victimChunk`, never on `jobs`).  A module with no victims still
 * gets one empty shard so telemetry reports every instance.
 * `victims_per_module` is populationVictims(cfg).size().
 */
std::vector<ShardPlan>
planPopulationShards(const PopulationConfig &cfg,
                     std::size_t victims_per_module);

/** What one population run did, shard by shard. */
struct PopulationTelemetry
{
    int jobs = 1;
    bool perVictimChunks = false;
    double wallSeconds = 0.0;
    std::vector<ShardReport> shards;

    /**
     * Every additive ShardReport field summed over the shards:
     * `seconds` is the serial-equivalent busy time, `populatedRows`
     * the fleet total (see maxPopulatedRows).  module/firstSlot are 0.
     */
    ShardReport
    total() const
    {
        ShardReport t;
        for (const ShardReport &s : shards) {
            t.victims += s.victims;
            t.workUnits += s.workUnits;
            t.seconds += s.seconds;
            t.acts += s.acts;
            t.populatedRows += s.populatedRows;
            t.fastPathIterations += s.fastPathIterations;
            t.planCacheHits += s.planCacheHits;
            t.planCacheMisses += s.planCacheMisses;
        }
        return t;
    }

    std::size_t workUnits() const { return total().workUnits; }

    /** Largest per-shard materialized-row count (RSS sublinearity). */
    std::size_t
    maxPopulatedRows() const
    {
        std::size_t n = 0;
        for (const ShardReport &s : shards)
            n = std::max(n, s.populatedRows);
        return n;
    }
};

/** HC_first measurement as a function of (tester, victim). */
using MeasureFn =
    std::function<std::uint64_t(ModuleTester &, RowId victim)>;

/**
 * Run several measurements over the same victim population, keeping
 * every sample (O(modules * victims) memory).  Shares its shard loop
 * with sweepPopulation (population.h), which keeps sketches instead.
 *
 * With `cfg.jobs > 1` the (module, victim, measure) work units run in
 * parallel on a pud::exec pool; the output is guaranteed bit-identical
 * to the serial path (see PopulationConfig::jobs).
 *
 * @param telemetry optional out-param receiving per-shard wall time
 *                  and work-unit counts
 * @return one vector per MeasureFn, aligned per victim; kNoFlip maps
 *         to NaN so downstream stats can filter pairs consistently.
 */
std::vector<std::vector<double>>
measurePopulation(const PopulationConfig &cfg,
                  const std::vector<MeasureFn> &measures,
                  PopulationTelemetry *telemetry = nullptr);

/** Drop victim entries where any series is NaN; keeps pairing. */
std::vector<std::vector<double>>
dropIncomplete(const std::vector<std::vector<double>> &series);

// ---------------------------------------------------------------------------
// §7: PuDHammer in the presence of in-DRAM TRR
// ---------------------------------------------------------------------------

enum class TrrTechnique
{
    RowHammer,  //!< U-TRR N-sided pattern
    Comra,      //!< same pattern with copy cycles
    Simra,      //!< back-to-back SiMRA ops between REFs
};

inline const char *
name(TrrTechnique t)
{
    switch (t) {
      case TrrTechnique::RowHammer: return "RowHammer";
      case TrrTechnique::Comra:     return "CoMRA";
      case TrrTechnique::Simra:     return "SiMRA";
    }
    return "?";
}

struct TrrConfig
{
    BankId bank = 0;

    /** Aggressor count for the N-sided RowHammer/CoMRA pattern. */
    int nSided = 2;

    /** Simultaneously activated rows for the SiMRA variant. */
    int simraN = 32;

    /** Total hammers per aggressor (paper: 500K). */
    std::uint64_t hammersPerAggressor = 60000;

    /** ACT budget per tREFI in the tested module (paper: 156). */
    int actsPerTrefi = 156;
};

/**
 * Run one TRR experiment iteration: build the aggressor geometry in
 * the middle subarray, initialize victims, run the paced pattern with
 * periodic REF, and count bitflips across every non-aggressor row of
 * the subarray.
 *
 * `hook`, when non-null, is attached as the device's close-driven
 * mitigation (dram::Device::setMitigation) for the measured run only
 * -- profiling always observes the intrinsic chip -- and detached
 * before returning.  This lets the same harness measure PARA /
 * Graphene / PRAC instead of (or on top of) the REF-driven native TRR
 * sampler: pass trr_enabled = false with a hook for a pure
 * alternative-mitigation arm.
 */
std::uint64_t runTrrExperiment(ModuleTester &tester, TrrTechnique tech,
                               const TrrConfig &cfg, bool trr_enabled,
                               dram::MitigationHook *hook = nullptr);

} // namespace pud::hammer

#endif // PUD_HAMMER_EXPERIMENT_H
