#include "hammer/popsweep.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "hammer/sweep_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pud::hammer {

namespace {

std::string
workerCheckpointPath(const std::string &dir, int w)
{
    return dir + "/worker" + std::to_string(w) + ".ckpt";
}

std::string
workerMetaPath(const std::string &dir, int w)
{
    return dir + "/worker" + std::to_string(w) + ".meta";
}

std::string
workerMetricsPath(const std::string &dir, int w)
{
    return dir + "/worker" + std::to_string(w) + ".metrics.json";
}

/** Peak RSS of this process, in bytes (Linux ru_maxrss is KiB). */
std::uint64_t
selfPeakRssBytes()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/** The completion sidecar a worker writes as its very last action. */
struct WorkerMeta
{
    std::uint64_t rssBytes = 0;
    double wallSeconds = 0.0;
    std::size_t resumedShards = 0;
    std::size_t shards = 0;
};

bool
readWorkerMeta(const std::string &path, int worker, WorkerMeta *meta)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line))
        return false;
    std::istringstream ls(line);
    std::string magic;
    int w = -1;
    if (!(ls >> magic) || magic != "popmeta1" ||
        !kvInt(ls, "worker", &w) || w != worker ||
        !kvInt(ls, "rss", &meta->rssBytes))
        return false;
    return kvHexDouble(ls, "seconds", &meta->wallSeconds) &&
           kvInt(ls, "resumed", &meta->resumedShards) &&
           kvInt(ls, "shards", &meta->shards);
}

/** Seconds since the file was last modified; negative if absent. */
double
fileAgeSeconds(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    const auto now = std::chrono::system_clock::now();
    const auto mtime =
        std::chrono::system_clock::from_time_t(st.st_mtime);
    return std::chrono::duration<double>(now - mtime).count();
}

/**
 * Worker body, run in the forked child.  Everything after
 * sweepPopulation must stay simple: the sidecars are written
 * atomically (meta last -- its presence certifies the checkpoint is
 * complete) and the child leaves via _exit so no parent-registered
 * atexit hook (e.g. the --metrics printer) runs in the child.
 */
[[noreturn]] void
runWorker(const PopulationConfig &cfg,
          const std::vector<MeasureFn> &measures,
          const PopsweepOptions &opt, int w, std::size_t begin,
          std::size_t end, pid_t supervisor)
{
#if defined(__linux__)
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    if (::getppid() != supervisor)
        ::_exit(3);  // supervisor died before we armed the death signal

    PopulationConfig wcfg = cfg;
    wcfg.jobs = opt.jobsPerWorker;
    SweepOptions so;
    so.checkpointPath = workerCheckpointPath(opt.dir, w);
    so.sketchAlpha = opt.sketchAlpha;
    so.shardBegin = begin;
    so.shardEnd = end;

    const SweepResult r = sweepPopulation(wcfg, measures, so);

    atomicWriteFile(workerMetricsPath(opt.dir, w),
                    obs::snapshotToJson(obs::metrics().snapshot()));

    std::string meta = "popmeta1 worker=" + std::to_string(w) +
                       " rss=" + std::to_string(selfPeakRssBytes()) +
                       " seconds=" +
                       stats::hexDouble(r.telemetry.wallSeconds) +
                       " resumed=" + std::to_string(r.resumedShards) +
                       " shards=" + std::to_string(r.totalShards) +
                       '\n';
    atomicWriteFile(workerMetaPath(opt.dir, w), meta);
    ::_exit(0);
}

} // namespace

std::pair<std::size_t, std::size_t>
popsweepWorkerRange(std::size_t shards, int workers, int w)
{
    const auto nw = static_cast<std::size_t>(workers);
    const auto i = static_cast<std::size_t>(w);
    return {shards * i / nw, shards * (i + 1) / nw};
}

PopsweepResult
popsweep(const PopulationConfig &cfg,
         const std::vector<MeasureFn> &measures,
         const PopsweepOptions &opt)
{
    const auto wall_start = std::chrono::steady_clock::now();
    if (opt.workers < 1)
        fatal("popsweep: workers must be >= 1 (got %d)", opt.workers);
    if (opt.dir.empty())
        fatal("popsweep: coordination directory is required");
    ::mkdir(opt.dir.c_str(), 0755);  // EEXIST is fine
    struct stat st{};
    if (::stat(opt.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("popsweep: cannot create directory %s", opt.dir.c_str());

    const std::uint64_t fingerprint =
        populationFingerprint(cfg, measures.size());
    const std::vector<ShardPlan> shards =
        planPopulationShards(cfg, populationVictims(cfg).size());
    const std::size_t total_shards = shards.size();

    struct Slot
    {
        int worker = 0;
        std::size_t begin = 0;
        std::size_t end = 0;
        pid_t pid = -1;
        int restarts = 0;
        bool done = false;
        std::chrono::steady_clock::time_point spawnedAt;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(opt.workers));
    for (int w = 0; w < opt.workers; ++w) {
        auto &s = slots[static_cast<std::size_t>(w)];
        s.worker = w;
        std::tie(s.begin, s.end) =
            popsweepWorkerRange(total_shards, opt.workers, w);
    }

    const pid_t supervisor = ::getpid();
    auto spawn = [&](Slot &s) {
        // A crashed predecessor may have died mid-meta; only a meta
        // written *after* the checkpoint commits certifies done-ness,
        // so clear any stale one before (re)spawning.
        std::remove(workerMetaPath(opt.dir, s.worker).c_str());
        std::fflush(nullptr);  // no duplicated stdio buffers in child
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("popsweep: fork failed for worker %d", s.worker);
        if (pid == 0)
            runWorker(cfg, measures, opt, s.worker, s.begin, s.end,
                      supervisor);
        s.pid = pid;
        s.spawnedAt = std::chrono::steady_clock::now();
    };

    auto restartOrDie = [&](Slot &s, const char *why) {
        if (++s.restarts > opt.maxRestartsPerWorker)
            fatal("popsweep: worker %d exceeded %d restarts (last "
                  "failure: %s)",
                  s.worker, opt.maxRestartsPerWorker, why);
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event(
                "popsweep_restart",
                {{"worker", static_cast<std::int64_t>(s.worker)},
                 {"restarts", static_cast<std::int64_t>(s.restarts)},
                 {"why", std::string(why)}});
        spawn(s);
    };

    for (Slot &s : slots)
        spawn(s);

    // ---- supervise ----------------------------------------------------
    std::size_t remaining = slots.size();
    while (remaining > 0) {
        for (Slot &s : slots) {
            if (s.done || s.pid < 0)
                continue;
            int status = 0;
            const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
            if (r == s.pid) {
                s.pid = -1;
                WorkerMeta meta;
                if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                    readWorkerMeta(workerMetaPath(opt.dir, s.worker),
                                   s.worker, &meta)) {
                    s.done = true;
                    --remaining;
                } else {
                    restartOrDie(s, WIFSIGNALED(status)
                                        ? "killed by signal"
                                        : "abnormal exit");
                }
                continue;
            }
            // Stall watch: the checkpoint writer's commit cadence
            // keeps the file mtime fresh while the worker makes
            // progress; measure from spawn until the first commit.
            const double age =
                fileAgeSeconds(workerCheckpointPath(opt.dir, s.worker));
            const double alive = secondsSince(s.spawnedAt);
            const double quiet = age < 0.0 ? alive
                                           : std::min(age, alive);
            if (quiet > opt.stallTimeoutSeconds) {
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, &status, 0);
                s.pid = -1;
                restartOrDie(s, "stalled");
            }
        }
        if (remaining > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
    }

    // ---- validate + canonical merge -----------------------------------
    PopsweepResult result;
    result.sweep.sketches.assign(measures.size(),
                                 stats::SampleSketch(opt.sketchAlpha));
    result.sweep.telemetry.jobs = opt.jobsPerWorker;
    result.sweep.telemetry.perVictimChunks = cfg.perVictimChunks;

    for (Slot &s : slots) {
        const std::string path =
            workerCheckpointPath(opt.dir, s.worker);
        const auto records = loadCheckpointRecords(
            path, fingerprint, measures.size(), total_shards);
        if (records.size() != s.end - s.begin ||
            (!records.empty() && records.front().first != s.begin))
            fatal("popsweep: worker %d checkpoint %s holds %zu "
                  "records, expected shards [%zu, %zu)",
                  s.worker, path.c_str(), records.size(), s.begin,
                  s.end);
        // Workers own ascending ranges: merging worker by worker is
        // the global shard order.
        mergeShardRecords(shards, records, result.sweep);

        WorkerMeta meta;
        if (!readWorkerMeta(workerMetaPath(opt.dir, s.worker),
                            s.worker, &meta))
            fatal("popsweep: worker %d finished without a valid meta "
                  "sidecar",
                  s.worker);
        WorkerReport wr;
        wr.worker = s.worker;
        wr.shardBegin = s.begin;
        wr.shardEnd = s.end;
        wr.restarts = s.restarts;
        wr.peakRssBytes = meta.rssBytes;
        wr.wallSeconds = meta.wallSeconds;
        wr.resumedShards = meta.resumedShards;
        result.workers.push_back(wr);
        result.sweep.resumedShards += meta.resumedShards;
        result.aggregateRssBytes += meta.rssBytes;

        // Fold the worker's metrics into this process so a --metrics
        // run prints the whole fleet's counters; merge order across
        // workers cannot matter (integer sums), and the printout
        // itself is name-sorted.
        std::ifstream mf(workerMetricsPath(opt.dir, s.worker));
        if (mf) {
            std::stringstream buf;
            buf << mf.rdbuf();
            if (auto snap = obs::snapshotFromJson(buf.str()))
                obs::metrics().merge(*snap);
            else
                fatal("popsweep: worker %d wrote a malformed metrics "
                      "sidecar",
                      s.worker);
        }
    }

    result.sweep.telemetry.wallSeconds = secondsSince(wall_start);
    return result;
}

} // namespace pud::hammer
