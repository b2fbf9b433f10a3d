#include "hammer/population.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "exec/pool.h"
#include "hammer/hcfirst.h"
#include "hammer/sweep_util.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace pud::hammer {

namespace {

std::string
encodeRecord(std::size_t index, const ShardRecord &rec)
{
    std::string out = "shard=" + std::to_string(index);
    out += " module=" + std::to_string(rec.report.module);
    out += " victims=" + std::to_string(rec.report.victims);
    out += " units=" + std::to_string(rec.report.workUnits);
    out += " seconds=" + stats::hexDouble(rec.report.seconds);
    out += " acts=" + std::to_string(rec.report.acts);
    out += " populated=" + std::to_string(rec.report.populatedRows);
    out += " fast=" + std::to_string(rec.report.fastPathIterations);
    out += " hits=" + std::to_string(rec.report.planCacheHits);
    out += " misses=" + std::to_string(rec.report.planCacheMisses);
    out += '\n';
    for (const stats::SampleSketch &sk : rec.sketches) {
        out += "sk ";
        out += sk.serialize();
        out += '\n';
    }
    return out;
}

struct CheckpointHeader
{
    std::uint64_t fingerprint = 0;
    std::size_t measures = 0;
    std::size_t shards = 0;
    std::size_t base = 0;
};

bool
parseHeader(const std::string &line, CheckpointHeader *h)
{
    std::istringstream header(line);
    std::string magic;
    return (header >> magic) && magic == "popckpt1" &&
           kvInt(header, "fp", &h->fingerprint) &&
           kvInt(header, "measures", &h->measures) &&
           kvInt(header, "shards", &h->shards) &&
           kvInt(header, "base", &h->base);
}

/**
 * Parse one record whose first line is already in `line` (the sk
 * payload lines are consumed from `in`).  False on any mismatch; the
 * stream may then be mid-record, which callers treat as the end of
 * the valid prefix.
 */
bool
parseRecord(std::istream &in, std::string &line, std::size_t expect,
            std::size_t total_shards, std::size_t measures,
            ShardRecord *rec)
{
    std::istringstream ls(line);
    std::size_t index = 0;
    if (!kvInt(ls, "shard", &index) || index != expect ||
        index >= total_shards ||
        !kvInt(ls, "module", &rec->report.module) ||
        !kvInt(ls, "victims", &rec->report.victims) ||
        !kvInt(ls, "units", &rec->report.workUnits) ||
        !kvHexDouble(ls, "seconds", &rec->report.seconds) ||
        !kvInt(ls, "acts", &rec->report.acts) ||
        !kvInt(ls, "populated", &rec->report.populatedRows) ||
        !kvInt(ls, "fast", &rec->report.fastPathIterations) ||
        !kvInt(ls, "hits", &rec->report.planCacheHits) ||
        !kvInt(ls, "misses", &rec->report.planCacheMisses))
        return false;

    rec->sketches.reserve(measures);
    for (std::size_t i = 0; i < measures; ++i) {
        if (!std::getline(in, line) || line.rfind("sk ", 0) != 0)
            return false;
        auto sk = stats::SampleSketch::deserialize(
            std::string_view(line).substr(3));
        if (!sk)
            return false;
        rec->sketches.push_back(std::move(*sk));
    }
    return true;
}

} // namespace

void
atomicWriteFile(const std::string &path, const std::string &contents)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        fatal("cannot open checkpoint temp file %s", tmp.c_str());
    const char *p = contents.data();
    std::size_t left = contents.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            ::close(fd);
            fatal("short write to checkpoint temp file %s",
                  tmp.c_str());
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        fatal("fsync failed on checkpoint temp file %s", tmp.c_str());
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename %s over %s", tmp.c_str(), path.c_str());

    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
        ::fsync(dfd);  // durability of the rename itself; best effort
        ::close(dfd);
    }
}

namespace {

/**
 * Canonical-order streaming checkpoint writer.
 *
 * Shards complete in scheduler order, but the file must always be a
 * complete canonical prefix (that is what makes a resumed merge
 * bit-identical), so completed records park until every lower-index
 * shard has been handed in.  Commits go through atomicReplace: the
 * on-disk file is rewritten whole, which keeps every observable state
 * a valid prefix at the cost of O(records) IO per commit -- bounded by
 * committing on a time cadence that stretches as the file grows.  The
 * cadence also refreshes the file mtime, which is what the popsweep
 * supervisor's stall detector watches.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter(std::string path, std::string header,
                     std::size_t next)
        : path_(std::move(path)), header_(std::move(header)),
          next_(next), lastCommit_(std::chrono::steady_clock::now())
    {}

    /** Seed the writer with the already-validated resumed prefix. */
    void
    addResumed(std::string record)
    {
        lines_.push_back(std::move(record));
    }

    /** Commit the resumed prefix (even if empty: the header must be
     *  on disk before the supervisor can trust the file). */
    void
    commitInitial()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        commitLocked();
    }

    void
    offer(std::size_t index, std::string record)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        parked_.emplace(index, std::move(record));
        while (!parked_.empty() && parked_.begin()->first == next_) {
            lines_.push_back(std::move(parked_.begin()->second));
            parked_.erase(parked_.begin());
            ++next_;
            ++uncommitted_;
        }
        if (uncommitted_ == 0)
            return;
        // Stretch the commit interval as the file grows so total IO
        // stays near-linear; floor of 1s keeps small runs durable and
        // the mtime fresh for stall detection.
        const double interval =
            std::max(1.0, static_cast<double>(lines_.size()) / 50000.0);
        if (secondsSince(lastCommit_) >= interval)
            commitLocked();
    }

    void
    finish()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!parked_.empty())
            fatal("checkpoint %s: %zu shard records never became "
                  "appendable (gap in the canonical order)",
                  path_.c_str(), parked_.size());
        if (uncommitted_ > 0)
            commitLocked();
    }

  private:
    void
    commitLocked()
    {
        std::string contents = header_;
        for (const std::string &line : lines_)
            contents += line;
        atomicWriteFile(path_, contents);
        uncommitted_ = 0;
        lastCommit_ = std::chrono::steady_clock::now();
    }

    std::string path_;
    std::string header_;
    std::vector<std::string> lines_;  //!< canonical-order records
    std::map<std::size_t, std::string> parked_;
    std::size_t next_;          //!< next global index to append
    std::size_t uncommitted_ = 0;
    std::chrono::steady_clock::time_point lastCommit_;
    std::mutex mutex_;
};

} // namespace

std::uint64_t
populationFingerprint(const PopulationConfig &cfg, std::size_t measures)
{
    std::uint64_t h = 0x506F7043 ^ 0x6B707431;  // "PopC" ^ "kpt1"
    for (char c : cfg.moduleId)
        h = Rng::mix64(h ^ static_cast<unsigned char>(c));
    h = Rng::mix64(h ^ static_cast<std::uint64_t>(cfg.modules));
    h = Rng::mix64(h ^ cfg.victimsPerSubarray);
    h = Rng::mix64(h ^ (cfg.oddOnly ? 1 : 0));
    h = Rng::mix64(h ^ cfg.seed);
    h = Rng::mix64(h ^ cfg.rowsPerSubarray);
    h = Rng::mix64(h ^ (cfg.perVictimChunks ? 1 : 0));
    h = Rng::mix64(h ^ cfg.victimChunk);
    h = Rng::mix64(h ^ static_cast<std::uint64_t>(measures));
    return h;
}

CheckpointScan
scanCheckpoint(const std::string &path)
{
    CheckpointScan scan;
    std::ifstream in(path);
    if (!in)
        return scan;
    std::string line;
    if (!std::getline(in, line))
        return scan;
    CheckpointHeader h;
    if (!parseHeader(line, &h))
        return scan;
    scan.valid = true;
    scan.fingerprint = h.fingerprint;
    scan.measures = h.measures;
    scan.shards = h.shards;
    scan.base = h.base;

    std::size_t expect = h.base;
    while (std::getline(in, line)) {
        ShardRecord rec;
        if (!parseRecord(in, line, expect, h.shards, h.measures,
                         &rec)) {
            scan.torn = true;
            break;
        }
        ++scan.records;
        ++expect;
    }
    return scan;
}

std::vector<std::pair<std::size_t, ShardRecord>>
loadCheckpointRecords(const std::string &path, std::uint64_t fingerprint,
                      std::size_t measures, std::size_t total_shards)
{
    std::vector<std::pair<std::size_t, ShardRecord>> loaded;
    std::ifstream in(path);
    if (!in)
        return loaded;

    std::string line;
    if (!std::getline(in, line))
        return loaded;
    CheckpointHeader h;
    if (!parseHeader(line, &h))
        fatal("checkpoint %s: unrecognized header", path.c_str());
    if (h.fingerprint != fingerprint || h.measures != measures) {
        fatal("checkpoint %s was written by a different sweep "
              "configuration (fingerprint %016llx vs %016llx); "
              "refusing to resume",
              path.c_str(),
              static_cast<unsigned long long>(h.fingerprint),
              static_cast<unsigned long long>(fingerprint));
    }
    if (h.shards != total_shards)
        fatal("checkpoint %s plans %zu shards, expected %zu",
              path.c_str(), h.shards, total_shards);

    std::size_t expect = h.base;
    while (std::getline(in, line)) {
        ShardRecord rec;
        if (!parseRecord(in, line, expect, total_shards, measures,
                         &rec))
            break;
        loaded.emplace_back(expect, std::move(rec));
        ++expect;
    }
    return loaded;
}

namespace {

/**
 * The population shard loop: the one place population shards run.
 * measurePopulation and sweepPopulation differ only in how they
 * reduce what it measures.
 *
 * Runs shards [begin + resumed, end) of the plan on cfg.jobs threads
 * (the resumed prefix only shows in the trace).  Each shard takes a
 * tester from the arena pool, reset to its module's seed, runs
 * cfg.setup and the (victim x measure) loop, hands every HC_first to
 * `sample(shard index, global slot, measure index, hc)` -- kNoFlip as
 * NaN -- and then its report to `done(shard index, report)`.  Both
 * callbacks run on the shard's thread.  Returns the telemetry of the
 * computed shards, in shard order.
 */
template <typename Sample, typename Done>
PopulationTelemetry
runShards(const PopulationConfig &cfg,
          const std::vector<MeasureFn> &measures,
          const std::vector<RowId> &victims,
          const std::vector<ShardPlan> &shards, std::size_t begin,
          std::size_t resumed, std::size_t end, Sample &&sample,
          Done &&done)
{
    const auto wall_start = std::chrono::steady_clock::now();
    PopulationTelemetry tel;
    tel.jobs = exec::resolveJobs(cfg.jobs);
    tel.perVictimChunks = cfg.perVictimChunks;
    const std::size_t first = begin + resumed;
    tel.shards.resize(end - first);

    if (obs::traceOn()) [[unlikely]]
        obs::trace().event(
            "sweep_start",
            {{"module_id", cfg.moduleId},
             {"modules", static_cast<std::int64_t>(cfg.modules)},
             {"victims", victims.size() *
                             static_cast<std::size_t>(
                                 std::max(0, cfg.modules))},
             {"measures", measures.size()},
             {"shards", end - begin},
             {"shard_base", begin},
             {"resumed", resumed},
             {"jobs", static_cast<std::int64_t>(tel.jobs)}});

    // ---- tester arena pool -------------------------------------------
    //
    // Module instances of one population differ only in their device
    // seed (populationDeviceConfig), so a finished shard's tester is
    // reset for the next shard -- an O(populated-rows) Device::reset
    // plus a forgotten executor shape -- instead of reconstructing the
    // whole arena.  The pool holds at most `jobs` testers.  A reset
    // tester is a fresh one (pinned by ArenaReuse), so neither results
    // nor executor counters depend on which arena a shard lands on.
    std::mutex arena_mutex;
    std::vector<std::unique_ptr<ModuleTester>> arenas;

    exec::parallelFor(tel.jobs, tel.shards.size(), [&](std::size_t k) {
        const std::size_t si = first + k;
        const ShardPlan &shard = shards[si];
        const auto shard_start = std::chrono::steady_clock::now();

        std::unique_ptr<ModuleTester> tester;
        {
            std::lock_guard<std::mutex> lock(arena_mutex);
            if (!arenas.empty()) {
                tester = std::move(arenas.back());
                arenas.pop_back();
            }
        }
        dram::DeviceConfig dev_cfg =
            populationDeviceConfig(cfg, shard.module);
        if (tester)
            tester->reset(dev_cfg.seed);
        else
            tester = std::make_unique<ModuleTester>(std::move(dev_cfg));
        if (cfg.setup)
            cfg.setup(*tester);

        for (std::size_t v = shard.victimBegin; v < shard.victimEnd;
             ++v) {
            const std::size_t slot =
                shard.slotBase + (v - shard.victimBegin);
            for (std::size_t i = 0; i < measures.size(); ++i) {
                const std::uint64_t hc =
                    measures[i](*tester, victims[v]);
                sample(si, slot, i,
                       hc == kNoFlip
                           ? std::numeric_limits<double>::quiet_NaN()
                           : static_cast<double>(hc));
            }
        }

        ShardReport &r = tel.shards[k];
        r.module = shard.module;
        r.firstSlot = shard.slotBase;
        r.victims = shard.victimEnd - shard.victimBegin;
        r.workUnits = r.victims * measures.size();
        r.seconds = secondsSince(shard_start);
        r.acts = tester->device().counters().acts;
        r.populatedRows = tester->device().populatedRowCount();
        const bender::ExecStats &xs =
            tester->bench().executor().stats();
        r.fastPathIterations = xs.fastPathIterations;
        r.planCacheHits = xs.planCacheHits;
        r.planCacheMisses = xs.planCacheMisses;
        {
            std::lock_guard<std::mutex> lock(arena_mutex);
            arenas.push_back(std::move(tester));
        }
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event(
                "work_unit",
                {{"module", static_cast<std::int64_t>(r.module)},
                 {"first_slot", r.firstSlot},
                 {"victims", r.victims},
                 {"units", r.workUnits},
                 {"seconds", r.seconds},
                 {"fastpath_iters", r.fastPathIterations},
                 {"plan_hits", r.planCacheHits},
                 {"plan_misses", r.planCacheMisses}});
        done(si, r);
    });

    tel.wallSeconds = secondsSince(wall_start);
    if (obs::traceOn()) [[unlikely]]
        obs::trace().event("sweep_end",
                           {{"wall_s", tel.wallSeconds},
                            {"units", tel.workUnits()},
                            {"shards", end - begin},
                            {"resumed", resumed}});
    return tel;
}

} // namespace

std::vector<std::vector<double>>
measurePopulation(const PopulationConfig &cfg,
                  const std::vector<MeasureFn> &measures,
                  PopulationTelemetry *telemetry)
{
    // Every measurement has a pre-sized result slot in (module,
    // victim, measure) order, exactly the serial iteration order, so
    // the output can never depend on how shards are scheduled.
    const std::vector<RowId> victims = populationVictims(cfg);
    const std::vector<ShardPlan> shards =
        planPopulationShards(cfg, victims.size());
    std::vector<std::vector<double>> series(
        measures.size(),
        std::vector<double>(victims.size() *
                                static_cast<std::size_t>(
                                    std::max(0, cfg.modules)),
                            0.0));

    PopulationTelemetry tel = runShards(
        cfg, measures, victims, shards, 0, 0, shards.size(),
        [&](std::size_t, std::size_t slot, std::size_t i, double hc) {
            series[i][slot] = hc;
        },
        [](std::size_t, const ShardReport &) {});
    if (telemetry)
        *telemetry = std::move(tel);
    return series;
}

void
mergeShardRecords(
    const std::vector<ShardPlan> &shards,
    const std::vector<std::pair<std::size_t, ShardRecord>> &records,
    SweepResult &into)
{
    std::size_t next = 0;
    for (const auto &[index, rec] : records) {
        if (index < next || index >= shards.size())
            fatal("shard record %zu is out of canonical order",
                  index);
        if (rec.sketches.size() != into.sketches.size())
            fatal("shard %zu record holds %zu sketches, expected %zu",
                  index, rec.sketches.size(), into.sketches.size());
        for (std::size_t i = 0; i < rec.sketches.size(); ++i)
            into.sketches[i].merge(rec.sketches[i]);
        ShardReport report = rec.report;
        report.firstSlot = shards[index].slotBase;
        into.telemetry.shards.push_back(report);
        ++into.totalShards;
        next = index + 1;
    }
}

SweepResult
sweepPopulation(const PopulationConfig &cfg,
                const std::vector<MeasureFn> &measures,
                const SweepOptions &opt)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t fingerprint =
        populationFingerprint(cfg, measures.size());

    const std::vector<RowId> victims = populationVictims(cfg);
    const std::vector<ShardPlan> shards =
        planPopulationShards(cfg, victims.size());

    const std::size_t begin = std::min(opt.shardBegin, shards.size());
    const std::size_t end =
        std::min(opt.shardEnd, shards.size());
    if (begin > end)
        fatal("sweepPopulation: shard range [%zu, %zu) is invalid",
              begin, end);

    // records[k] holds global shard begin + k.
    std::vector<std::pair<std::size_t, ShardRecord>> records;

    // ---- resume -------------------------------------------------------
    if (!opt.checkpointPath.empty()) {
        records =
            loadCheckpointRecords(opt.checkpointPath, fingerprint,
                                  measures.size(), shards.size());
        if (!records.empty() && records.front().first != begin)
            fatal("checkpoint %s covers shards starting at %zu, "
                  "expected %zu; refusing to resume",
                  opt.checkpointPath.c_str(), records.front().first,
                  begin);
        records.resize(std::min(records.size(), end - begin));
    }
    const std::size_t resumed = records.size();
    records.resize(end - begin);
    for (std::size_t k = resumed; k < records.size(); ++k) {
        records[k].first = begin + k;
        records[k].second.sketches.assign(
            measures.size(), stats::SampleSketch(opt.sketchAlpha));
    }

    // ---- checkpoint writer (canonical-order atomic commits) -----------
    std::unique_ptr<CheckpointWriter> ckpt;
    if (!opt.checkpointPath.empty()) {
        std::string header = "popckpt1 fp=" +
                             std::to_string(fingerprint) +
                             " measures=" +
                             std::to_string(measures.size()) +
                             " shards=" + std::to_string(shards.size()) +
                             " base=" + std::to_string(begin) + '\n';
        ckpt = std::make_unique<CheckpointWriter>(
            opt.checkpointPath, std::move(header), begin + resumed);
        for (std::size_t k = 0; k < resumed; ++k)
            ckpt->addResumed(encodeRecord(begin + k, records[k].second));
        // Rewrite the validated prefix rather than trusting whatever
        // the old file ends with; from here on every commit replaces
        // the file atomically.
        ckpt->commitInitial();
    }

    // ---- sweep: each shard reduces into its own sketches ---------------
    const PopulationTelemetry computed = runShards(
        cfg, measures, victims, shards, begin, resumed, end,
        [&](std::size_t si, std::size_t, std::size_t i, double hc) {
            records[si - begin].second.sketches[i].add(hc);
        },
        [&](std::size_t si, const ShardReport &report) {
            ShardRecord &rec = records[si - begin].second;
            rec.report = report;
            if (ckpt)
                ckpt->offer(si, encodeRecord(si, rec));
        });
    if (ckpt)
        ckpt->finish();

    SweepResult result;
    result.sketches.assign(measures.size(),
                           stats::SampleSketch(opt.sketchAlpha));
    mergeShardRecords(shards, records, result);
    result.telemetry.jobs = computed.jobs;
    result.telemetry.perVictimChunks = cfg.perVictimChunks;
    result.telemetry.wallSeconds = secondsSince(wall_start);
    result.resumedShards = resumed;
    return result;
}

} // namespace pud::hammer
