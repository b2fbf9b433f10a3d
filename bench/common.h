/**
 * @file
 * Shared scaffolding for the bench binaries that regenerate the
 * paper's tables and figures.
 *
 * Every bench accepts the same scale knobs so users can trade runtime
 * for population size:
 *   --victims=N   victims sampled per subarray (default 8)
 *   --modules=N   cap on module instances per family (default 2)
 *   --rows=N      rows per subarray (default 128, power of two)
 *   --seed=N      master seed (default 1)
 *   --jobs=N      worker threads for population sweeps (default: all
 *                 hardware threads; --jobs=1 is the legacy serial path)
 *   --fast        minimal population for smoke runs
 *   --full        paper-scale population (slow)
 *
 * Observability (pud::obs):
 *   --trace=FILE  structured JSONL event trace (wall-clock timing;
 *                 NOT expected to be identical across --jobs values)
 *   --metrics     deterministic counters/histograms printed to stdout
 *                 at exit (byte-identical for every --jobs value)
 *
 * Determinism guarantee: --jobs only changes wall-clock time, never
 * results.  Population sweeps shard at module granularity (each shard
 * runs on a tester reset to its module's seed, replaying the serial
 * per-module loop verbatim) and every measurement lands in a pre-sized
 * slot keyed by (module, victim, measure), so stdout is byte-identical
 * for every --jobs value.  Per-shard wall time and work-unit counts
 * are reported on stderr at bench exit.
 */

#ifndef PUD_BENCH_COMMON_H
#define PUD_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "hammer/experiment.h"
#include "obs/obs.h"
#include "stats/summary.h"
#include "util/args.h"
#include "util/table.h"

namespace pud::bench {

using hammer::kNoFlip;
using hammer::MeasureFn;
using hammer::ModuleTester;
using hammer::PopulationConfig;

/** Scale knobs common to all benches. */
struct Scale
{
    dram::RowId victims = 8;
    int modulesCap = 2;
    dram::RowId rowsPerSubarray = 128;
    std::uint64_t seed = 1;

    /** Worker threads; resolved (<=0 means hardware concurrency). */
    int jobs = 1;

    static Scale
    parse(const Args &args)
    {
        // Every bench parses its scale here, so this is the one spot
        // that gives all fig* binaries --trace/--metrics for free.
        obs::initFromArgs(args);
        Scale s;
        if (args.has("fast")) {
            s.victims = 4;
            s.modulesCap = 1;
        }
        if (args.has("full")) {
            s.victims = 1024;  // clamped to the subarray interior
            s.modulesCap = 64;  // clamped to Table 2 module counts
            s.rowsPerSubarray = 512;
        }
        s.victims = static_cast<dram::RowId>(
            args.getInt("victims", static_cast<long>(s.victims)));
        s.modulesCap = static_cast<int>(
            args.getInt("modules", s.modulesCap));
        s.rowsPerSubarray = static_cast<dram::RowId>(
            args.getInt("rows", static_cast<long>(s.rowsPerSubarray)));
        s.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
        s.jobs = exec::resolveJobs(
            static_cast<int>(args.getInt("jobs", 0)));
        return s;
    }
};

/**
 * Collects PopulationTelemetry across a bench run and prints the
 * per-shard wall-time / work-unit summary at process exit.  Printing
 * goes to stderr so stdout (the tables) stays byte-identical across
 * --jobs values.
 */
class JobsSummary
{
  public:
    static JobsSummary &
    instance()
    {
        static JobsSummary s;
        return s;
    }

    void
    add(const hammer::PopulationTelemetry &t)
    {
        if (runs_.empty())
            std::atexit([] { JobsSummary::instance().print(); });
        runs_.push_back(t);
    }

    void
    print() const
    {
        if (runs_.empty())
            return;
        double wall = 0.0;
        hammer::PopulationTelemetry all;  // every sweep's shards
        for (const auto &t : runs_) {
            wall += t.wallSeconds;
            all.shards.insert(all.shards.end(), t.shards.begin(),
                              t.shards.end());
        }
        std::fprintf(stderr,
                     "--- pud::exec summary: %zu population sweep(s), "
                     "jobs=%d ---\n",
                     runs_.size(), runs_.front().jobs);
        for (std::size_t r = 0; r < runs_.size(); ++r) {
            const auto &t = runs_[r];
            const double busy = t.total().seconds;
            std::fprintf(stderr,
                         "sweep %2zu: %3zu shard(s), %5zu work units, "
                         "wall %7.2f s, busy %7.2f s (%.2fx)\n",
                         r + 1, t.shards.size(), t.workUnits(),
                         t.wallSeconds, busy,
                         t.wallSeconds > 0.0 ? busy / t.wallSeconds
                                             : 0.0);
            for (const auto &s : t.shards) {
                std::fprintf(stderr,
                             "  shard module=%-3d slots=[%zu,%zu) "
                             "units=%-4zu %.3f s\n",
                             s.module, s.firstSlot,
                             s.firstSlot + s.victims, s.workUnits,
                             s.seconds);
            }
        }
        const hammer::ShardReport total = all.total();
        std::fprintf(stderr,
                     "total: %zu work units, wall %.2f s, busy %.2f s "
                     "(parallel speedup %.2fx)\n",
                     total.workUnits, wall, total.seconds,
                     wall > 0.0 ? total.seconds / wall : 0.0);
        std::fprintf(stderr,
                     "executor: %llu fastPathIterations, "
                     "%llu planCacheHits, %llu planCacheMisses\n",
                     static_cast<unsigned long long>(
                         total.fastPathIterations),
                     static_cast<unsigned long long>(total.planCacheHits),
                     static_cast<unsigned long long>(
                         total.planCacheMisses));
    }

  private:
    std::vector<hammer::PopulationTelemetry> runs_;
};

/**
 * measurePopulation with bench telemetry: shard timings feed the
 * exit-time pud::exec summary.  All benches route their population
 * sweeps through this wrapper.
 */
inline std::vector<std::vector<double>>
runPopulation(const PopulationConfig &cfg,
              const std::vector<MeasureFn> &measures)
{
    hammer::PopulationTelemetry telemetry;
    auto series = hammer::measurePopulation(cfg, measures, &telemetry);
    JobsSummary::instance().add(telemetry);
    return series;
}

/** Population config for one Table 2 family under the scale knobs. */
inline PopulationConfig
populationFor(const dram::FamilyProfile &family, const Scale &scale,
              bool odd_only = false)
{
    PopulationConfig cfg;
    cfg.moduleId = family.moduleId;
    cfg.modules = std::min(family.numModules, scale.modulesCap);
    cfg.victimsPerSubarray = scale.victims;
    cfg.oddOnly = odd_only;
    cfg.seed = scale.seed;
    cfg.rowsPerSubarray = scale.rowsPerSubarray;
    cfg.jobs = scale.jobs;
    return cfg;
}

/**
 * The representative family per manufacturer used for the detailed
 * per-figure sweeps (the paper's SiMRA sections use the SK Hynix
 * 8Gb A-die module, which is also the TRR experiment's DUT).
 */
inline const dram::FamilyProfile &
representative(dram::Manufacturer mfr)
{
    switch (mfr) {
      case dram::Manufacturer::SKHynix:
        return dram::findFamily("HMA81GU7AFR8N-UH");
      case dram::Manufacturer::Micron:
        return dram::findFamily("MTA18ASF4G72HZ-3G2F1");
      case dram::Manufacturer::Samsung:
        return dram::findFamily("M391A2G43BB2-CWE");
      case dram::Manufacturer::Nanya:
        return dram::findFamily("KVR24N17S8/8");
    }
    return dram::table2Families().front();
}

constexpr dram::Manufacturer kAllMfrs[] = {
    dram::Manufacturer::SKHynix,
    dram::Manufacturer::Micron,
    dram::Manufacturer::Samsung,
    dram::Manufacturer::Nanya,
};

/** Render a BoxStats sample set as a table row. */
inline std::vector<std::string>
boxRow(const std::string &label, const std::vector<double> &samples)
{
    const auto bs = stats::boxStats(samples);
    return {label,
            Table::count(static_cast<long long>(bs.count)),
            Table::num(bs.min, 0),
            Table::num(bs.q1, 0),
            Table::num(bs.median, 0),
            Table::num(bs.q3, 0),
            Table::num(bs.max, 0),
            Table::num(bs.mean, 1)};
}

inline std::vector<std::string>
boxHeader(const std::string &first)
{
    return {first, "n", "min", "q1", "median", "q3", "max", "mean"};
}

/** Standard header line for a bench. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("=== PuDHammer reproduction: %s (%s) ===\n", what,
                paper_ref);
}

} // namespace pud::bench

#endif // PUD_BENCH_COMMON_H
