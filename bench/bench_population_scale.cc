/**
 * @file
 * Fleet-scale population sweep benchmark (ROADMAP item 4).
 *
 * Sweeps double-sided RowHammer HC_first over a population of module
 * instances using the streaming sweepPopulation pipeline -- lazy
 * weak-cell thresholds, geometry-only victim enumeration, per-shard
 * SampleSketches, arena-reused testers, shard-granular
 * checkpoint/resume -- and, with --workers=N, the multi-process
 * popsweep supervisor (hammer/popsweep.h).
 *
 * stdout is the deterministic fleet summary -- byte-identical across
 * --jobs and --workers values and across checkpoint/resume splits
 * (sketches merge in canonical shard order; no wall-clock values are
 * printed).  Wall time, throughput, and memory go to stderr and, as
 * JSON, to --json=FILE (default BENCH_population.json):
 *
 *   {
 *     "bench": "population_scale", "module_id": ..., "modules": N,
 *     "victims_per_module": V, "measures": M, "work_units": U,
 *     "shards": S, "resumed_shards": R, "jobs": J, "workers": W,
 *     "wall_seconds": T, "acts": A, "hammers_per_sec": A/T,
 *     "work_units_per_sec": U/T, "peak_rss_bytes": B,
 *     "aggregate_rss_bytes": B', "populated_rows_per_module_max": P,
 *     "scaling": [{"workers": n, "wall_seconds": t, "acts": a,
 *                  "hammers_per_sec": a/t,
 *                  "aggregate_rss_bytes": b}, ...]   // --scan-workers
 *     "eager_rss_bytes": E, "eager_modules": N'      // --eager-ablation
 *   }
 *
 * Memory accounting is multi-process honest: with --workers=N the
 * figure is the *sum* of every worker's self-reported getrusage peak
 * (RUSAGE_CHILDREN would report only the largest child), and the
 * supervisor's own RSS is reported separately.  The --eager-ablation
 * arm (materializeAllRows instead of lazy thresholds) runs in a forked
 * child so its high-water RSS can never leak into the measured phase's
 * ru_maxrss -- a peak is a process-lifetime maximum, so running the
 * ablation in-process first would silently inflate the lazy figure.
 *
 * Scale knobs beyond bench/common.h:
 *   --modules=N       module instances (default 10000)
 *   --victims=N       victims per subarray (default 1; 6 subarrays)
 *   --max-hammers=N   per-trial hammer budget (default 100000)
 *   --workers=N       worker processes (0 = in-process sweep, default)
 *   --dir=D           popsweep coordination dir (default JSON+".workdir")
 *   --scan-workers=L  comma list, e.g. 1,2,4,8: rerun at each worker
 *                     count, record a "scaling" array, and fail if any
 *                     rerun's merged sketch differs from the measured
 *                     run (the cross-process determinism contract)
 *   --checkpoint=F    checkpoint file for the in-process path
 *   --eager-ablation  measure the eager-materialization RSS in an
 *                     isolated child (--eager-modules=N, default 200)
 *   --json=F          perf record path (default BENCH_population.json)
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common.h"
#include "hammer/popsweep.h"

namespace {

using namespace pud;
using namespace pud::bench;

/** Peak resident set size in bytes (0 when unsupported). */
std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB
#endif
#else
    return 0;
#endif
}

void
printSketch(const char *label, const stats::SampleSketch &sk)
{
    std::printf("%-10s n=%llu dropped=%llu min=%.0f p25=%.0f "
                "p50=%.0f p75=%.0f max=%.0f mean=%.1f\n",
                label, static_cast<unsigned long long>(sk.count()),
                static_cast<unsigned long long>(sk.dropped()),
                sk.min(), sk.quantile(0.25), sk.quantile(0.50),
                sk.quantile(0.75), sk.max(), sk.mean());
}

/** One sweep execution, via either path, reduced to bench numbers. */
struct RunStats
{
    std::string sketch;        //!< serialized measure-0 fleet sketch
    double wallSeconds = 0.0;
    std::uint64_t acts = 0;
    std::size_t workUnits = 0;
    std::size_t resumedShards = 0;
    std::size_t totalShards = 0;
    std::size_t maxPopulatedRows = 0;
    std::uint64_t aggregateRssBytes = 0;  //!< summed worker peaks
    hammer::SweepResult sweep;
};

/**
 * Drop stale worker files so a scaling rerun measures real work
 * instead of resuming a finished directory from a previous bench run.
 */
void
clearPopsweepDir(const std::string &dir)
{
    for (int w = 0; w < 256; ++w) {
        const std::string base = dir + "/worker" + std::to_string(w);
        std::remove((base + ".ckpt").c_str());
        std::remove((base + ".meta").c_str());
        std::remove((base + ".metrics.json").c_str());
    }
}

RunStats
runSweep(const hammer::PopulationConfig &cfg,
         const std::vector<hammer::MeasureFn> &measures, int workers,
         int jobs, const std::string &dir,
         const std::string &checkpoint, bool fresh)
{
    RunStats out;
    if (workers <= 0) {
        hammer::SweepOptions opt;
        opt.checkpointPath = checkpoint;
        out.sweep = hammer::sweepPopulation(cfg, measures, opt);
        out.aggregateRssBytes = peakRssBytes();
    } else {
        hammer::PopsweepOptions opt;
        opt.dir = dir;
        opt.workers = workers;
        opt.jobsPerWorker = jobs;
        if (fresh)
            clearPopsweepDir(dir);
        const hammer::PopsweepResult r =
            hammer::popsweep(cfg, measures, opt);
        for (const hammer::WorkerReport &w : r.workers)
            std::fprintf(stderr,
                         "# worker %d: shards [%zu,%zu), restarts %d, "
                         "rss %.1f MiB, wall %.2f s, resumed %zu\n",
                         w.worker, w.shardBegin, w.shardEnd,
                         w.restarts,
                         static_cast<double>(w.peakRssBytes) /
                             (1024.0 * 1024.0),
                         w.wallSeconds, w.resumedShards);
        out.sweep = r.sweep;
        out.aggregateRssBytes = r.aggregateRssBytes;
    }
    out.sketch = out.sweep.sketches[0].serialize();
    out.wallSeconds = out.sweep.telemetry.wallSeconds;
    const hammer::ShardReport total = out.sweep.telemetry.total();
    out.acts = total.acts;
    out.workUnits = total.workUnits;
    out.resumedShards = out.sweep.resumedShards;
    out.totalShards = out.sweep.totalShards;
    out.maxPopulatedRows = out.sweep.telemetry.maxPopulatedRows();
    return out;
}

/**
 * The eager-materialization ablation, isolated in a forked child: the
 * child repeats a (capped) sweep with every row materialized up front
 * and reports its peak RSS back over a pipe.  The parent's ru_maxrss
 * high-water mark is untouched, so the measured lazy figure stays
 * clean.  Returns 0 when unsupported or the child failed.
 */
std::uint64_t
eagerAblationRss(hammer::PopulationConfig cfg,
                 const std::vector<hammer::MeasureFn> &measures,
                 int eager_modules)
{
#if defined(__unix__) || defined(__APPLE__)
    cfg.modules = std::min(cfg.modules, eager_modules);
    cfg.setup = [](hammer::ModuleTester &t) {
        t.device().materializeAllRows();
    };
    int fds[2];
    if (pipe(fds) != 0)
        return 0;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return 0;
    }
    if (pid == 0) {
        close(fds[0]);
        hammer::sweepPopulation(cfg, measures);
        const std::uint64_t rss = peakRssBytes();
        ssize_t ignored = write(fds[1], &rss, sizeof rss);
        (void)ignored;
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::uint64_t rss = 0;
    if (read(fds[0], &rss, sizeof rss) != sizeof rss)
        rss = 0;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return rss;
#else
    (void)cfg;
    (void)measures;
    (void)eager_modules;
    return 0;
#endif
}

std::vector<int>
parseWorkerList(const std::string &spec)
{
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok =
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (!tok.empty())
            out.push_back(std::atoi(tok.c_str()));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    Scale scale = Scale::parse(args);

    hammer::PopulationConfig cfg;
    cfg.moduleId = args.get("module", "HMA81GU7AFR8N-UH");
    // Unlike the figure benches, the population bench does NOT cap the
    // instance count at the family's real module count: the whole
    // point is simulating fleets far beyond the paper's 316 chips.
    cfg.modules = static_cast<int>(args.getInt("modules", 10000));
    cfg.victimsPerSubarray =
        static_cast<dram::RowId>(args.getInt("victims", 1));
    cfg.rowsPerSubarray = scale.rowsPerSubarray;
    cfg.seed = scale.seed;
    cfg.jobs = scale.jobs;

    hammer::ModuleTester::Options opt;
    opt.search.maxHammers = static_cast<std::uint64_t>(
        args.getInt("max-hammers", 100000));

    const std::vector<hammer::MeasureFn> measures = {
        [&](hammer::ModuleTester &t, dram::RowId v) {
            return t.rhDouble(v, opt);
        }};

    const int workers =
        static_cast<int>(args.getInt("workers", 0));
    const std::string json_path =
        args.get("json", "BENCH_population.json");
    const std::string dir = args.get("dir", json_path + ".workdir");
    const std::vector<int> scan =
        parseWorkerList(args.get("scan-workers", ""));

#if defined(__unix__) || defined(__APPLE__)
    if (workers > 0 || !scan.empty())
        ::mkdir(dir.c_str(), 0755);  // parent of the per-run subdirs
#endif

    banner("fleet-scale population sweep", "ROADMAP item 4");
    std::printf("family %s, %d modules x %zu victims\n",
                cfg.moduleId.c_str(), cfg.modules,
                hammer::populationVictims(cfg).size());

    // ---- measured phase ----------------------------------------------
    const RunStats result =
        runSweep(cfg, measures, workers, scale.jobs, dir + "/main",
                 args.get("checkpoint", ""), /*fresh=*/false);

    printSketch("rh_double", result.sweep.sketches[0]);
    std::printf("sketch-bytes %zu buckets %zu\n",
                result.sketch.size(),
                result.sweep.sketches[0].buckets());

    // Capture the measured-phase memory figures *now*, before any
    // scaling rerun or ablation can raise this process's high-water
    // mark.
    const std::uint64_t self_rss = peakRssBytes();
    const std::uint64_t agg_rss = result.aggregateRssBytes;

    // ---- perf record (stderr + JSON; never stdout) -------------------
    const double wall = result.wallSeconds;
    const double hammers_per_sec =
        wall > 0.0 ? static_cast<double>(result.acts) / wall : 0.0;
    const double units_per_sec =
        wall > 0.0 ? static_cast<double>(result.workUnits) / wall
                   : 0.0;

    std::fprintf(stderr,
                 "perf: wall %.2f s, %" PRIu64 " acts (%.3g "
                 "hammers/s), %zu units (%.3g units/s), workers %d, "
                 "aggregate RSS %.1f MiB (self %.1f MiB), resumed "
                 "%zu/%zu shards, max %zu populated rows/module\n",
                 wall, result.acts, hammers_per_sec, result.workUnits,
                 units_per_sec, workers,
                 static_cast<double>(agg_rss) / (1024.0 * 1024.0),
                 static_cast<double>(self_rss) / (1024.0 * 1024.0),
                 result.resumedShards, result.totalShards,
                 result.maxPopulatedRows);

    // ---- worker-scaling sweep (--scan-workers) -----------------------
    struct ScalePoint
    {
        int workers;
        RunStats stats;
    };
    std::vector<ScalePoint> scaling;
    for (int n : scan) {
        if (n < 1)
            continue;
        const RunStats s =
            runSweep(cfg, measures, n, scale.jobs,
                     dir + "/scan_w" + std::to_string(n), "",
                     /*fresh=*/true);
        if (s.sketch != result.sketch) {
            std::fprintf(stderr,
                         "FAIL: workers=%d rerun produced a different "
                         "merged sketch -- cross-process determinism "
                         "contract violated\n",
                         n);
            return 1;
        }
        const double hps =
            s.wallSeconds > 0.0
                ? static_cast<double>(s.acts) / s.wallSeconds
                : 0.0;
        std::fprintf(stderr,
                     "scaling: workers=%d wall %.2f s (%.3g "
                     "hammers/s), aggregate RSS %.1f MiB\n",
                     n, s.wallSeconds, hps,
                     static_cast<double>(s.aggregateRssBytes) /
                         (1024.0 * 1024.0));
        scaling.push_back({n, s});
    }

    // ---- eager ablation (isolated child; see file comment) -----------
    std::uint64_t eager_rss = 0;
    const int eager_modules =
        static_cast<int>(args.getInt("eager-modules", 200));
    if (args.has("eager-ablation")) {
        eager_rss = eagerAblationRss(cfg, measures, eager_modules);
        std::fprintf(stderr,
                     "eager ablation: %.1f MiB peak RSS over %d "
                     "modules (lazy self: %.1f MiB)\n",
                     static_cast<double>(eager_rss) /
                         (1024.0 * 1024.0),
                     std::min(cfg.modules, eager_modules),
                     static_cast<double>(self_rss) /
                         (1024.0 * 1024.0));
    }

    if (FILE *f = std::fopen(json_path.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"population_scale\",\n"
            "  \"module_id\": \"%s\",\n"
            "  \"modules\": %d,\n"
            "  \"victims_per_module\": %zu,\n"
            "  \"measures\": %zu,\n"
            "  \"work_units\": %zu,\n"
            "  \"shards\": %zu,\n"
            "  \"resumed_shards\": %zu,\n"
            "  \"jobs\": %d,\n"
            "  \"workers\": %d,\n"
            "  \"wall_seconds\": %.3f,\n"
            "  \"acts\": %" PRIu64 ",\n"
            "  \"hammers_per_sec\": %.1f,\n"
            "  \"work_units_per_sec\": %.3f,\n"
            "  \"peak_rss_bytes\": %" PRIu64 ",\n"
            "  \"aggregate_rss_bytes\": %" PRIu64 ",\n"
            "  \"populated_rows_per_module_max\": %zu",
            cfg.moduleId.c_str(), cfg.modules,
            result.workUnits /
                std::max<std::size_t>(
                    1, static_cast<std::size_t>(cfg.modules)),
            measures.size(), result.workUnits, result.totalShards,
            result.resumedShards, scale.jobs, workers, wall,
            result.acts, hammers_per_sec, units_per_sec, self_rss,
            agg_rss, result.maxPopulatedRows);
        if (!scaling.empty()) {
            std::fprintf(f, ",\n  \"scaling\": [");
            for (std::size_t i = 0; i < scaling.size(); ++i) {
                const ScalePoint &p = scaling[i];
                const double hps =
                    p.stats.wallSeconds > 0.0
                        ? static_cast<double>(p.stats.acts) /
                              p.stats.wallSeconds
                        : 0.0;
                std::fprintf(f,
                             "%s\n    {\"workers\": %d, "
                             "\"wall_seconds\": %.3f, \"acts\": "
                             "%" PRIu64 ", \"hammers_per_sec\": %.1f, "
                             "\"aggregate_rss_bytes\": %" PRIu64 "}",
                             i ? "," : "", p.workers,
                             p.stats.wallSeconds, p.stats.acts, hps,
                             p.stats.aggregateRssBytes);
            }
            std::fprintf(f, "\n  ]");
        }
        if (args.has("eager-ablation"))
            std::fprintf(f,
                         ",\n  \"eager_rss_bytes\": %" PRIu64
                         ",\n  \"eager_modules\": %d",
                         eager_rss,
                         std::min(cfg.modules, eager_modules));
        std::fprintf(f, "\n}\n");
        std::fclose(f);
        std::fprintf(stderr, "perf record written to %s\n",
                     json_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
    return 0;
}
