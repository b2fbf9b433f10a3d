/**
 * @file
 * perfbench driver: times calls into the simulator's public API for
 * one workload and writes the raw measurements as one JSON document.
 *
 *   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
 *                    --out=FILE [--trace-file=FILE] [--size=tiny]
 *                    [--setup-only] [--digests]
 *
 * A run is: set-up (context plus one untimed warm-up task on the
 * golden seed), then an untraced measured phase of `seconds` (half of
 * it with --trace=1), and with --trace=1 a traced phase of the other
 * half.  Outside the timed spans, the driver samples a fixed reference
 * kernel after the set-up and after each task, so run.py can scale
 * their times by the host's speed at the moment.  The traced phase keeps
 * the driver's own spans (task -> build / layer call -> MeasureFn) in
 * memory and turns on the program's pud::obs trace and metrics; both
 * are written out when the run ends.  run.py turns the document into
 * the benchmark's metrics and checks every digest against the golden.
 *
 * --digests runs each task seed of --seed once and writes only their
 * digests (golden regeneration); --setup-only stops after the set-up.
 */

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dram/config.h"
#include "fuzz/campaign.h"
#include "hammer/experiment.h"
#include "hammer/population.h"
#include "mitigation/countermeasures.h"
#include "obs/obs.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace pud;

namespace {

using Clock = std::chrono::steady_clock;

/** Read as early as static initialization allows: the set-up clock. */
const Clock::time_point kProcessStart = Clock::now();

/**
 * Task seeds per run seed; tasks cycle through them.  Many distinct
 * seeds keep a run's median from hanging on the work of a few seeds;
 * golden.json holds one digest per seed index.
 */
constexpr std::size_t kTaskSeeds = 64;

/** The seed whose first task every set-up runs as its warm-up. */
constexpr std::uint64_t kGoldenSeed = 1;

/** SiMRA-capable SK Hynix family (the paper's Fig-13/24 DUT). */
const char *const kFamily = "HMA81GU7AFR8N-UH";

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Task `i` of run seed `seed`: cycles over kTaskSeeds derived seeds. */
std::uint64_t
taskSeed(std::uint64_t seed, std::size_t i)
{
    return Rng::mix64(Rng::mix64(seed) ^ (i % kTaskSeeds)) >> 33;
}

// ---- host speed reference --------------------------------------------

/** Reference samples taken right after the set-up. */
constexpr int kSetupRefSamples = 5;

/** One reference sample per this much task time (at least one). */
constexpr double kTaskMsPerRefSample = 80.0;

volatile std::uint64_t g_refSink;

/**
 * A fixed integer kernel (~5 ms) that keeps the core's execution units
 * busy the way the simulator does: eight dependency chains and a
 * data-dependent branch.  It calls nothing in src/, so only the host's
 * speed moves it.  Latency-bound kernels (one chain, a pointer chase)
 * do not slow down with the host the way the simulator does.
 */
std::uint64_t
refKernel()
{
    std::uint64_t v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint64_t br = 0;
    for (int i = 0; i < 250000; ++i) {
        for (int k = 0; k < 8; ++k) {
            v[k] += (v[k] << 3) ^ (v[(k + 1) & 7] >> 5);
            v[k] ^= 0x9e3779b97f4a7c15ULL;
        }
        if ((v[i & 7] >> 17) & 1)
            br += v[0];
        else
            br ^= v[3];
    }
    return br ^ v[0] ^ v[7];
}

/**
 * One reference sample: wall ms of the kernel on the calling thread.
 * Wall time, so that time the host takes from the vCPU (steal) counts
 * here as it does in a task.  One thread even for a two-job workload:
 * two short-lived threads often share one vCPU for the first
 * milliseconds and read twice the time.
 */
double
refSampleMs()
{
    const Clock::time_point t0 = Clock::now();
    g_refSink = g_refSink + refKernel();
    return 1e3 * since(t0);
}

/** FNV-1a over the bytes of the simulated outputs. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- in-memory spans -------------------------------------------------

/** Small per-thread lane number (0 = the driver's main thread). */
int
lane()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

struct Span
{
    const char *layer;
    std::string tag;
    int parent;
    int lane;
    double begin;
    double end;
};

/**
 * Spans of the traced phase.  Times are seconds since `origin`, taken
 * immediately before the pud::obs trace is opened, so driver spans and
 * trace events share one clock.
 */
class SpanLog
{
  public:
    bool on() const { return on_; }

    void
    start()
    {
        origin_ = Clock::now();
        on_ = true;
    }

    void stop() { on_ = false; }

    int
    open(const char *layer, int parent, std::string tag = {})
    {
        const double t = since(origin_);
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(
            Span{layer, std::move(tag), parent, lane(), t, -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        const double t = since(origin_);
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_ = false;
    Clock::time_point origin_;
    std::mutex mu_;  //!< guards spans_ (measure spans come from pool threads)
    std::vector<Span> spans_;
};

/** Opens a span when tracing; closes it on scope exit. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *layer, int parent,
              std::string tag = {})
        : log_(log),
          id_(log.on() ? log.open(layer, parent, std::move(tag)) : -1)
    {}
    ~SpanScope()
    {
        if (id_ >= 0)
            log_.close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

// ---- per-task results ------------------------------------------------

/** Layer facts the public API exposes, accumulated over one task. */
struct Facts
{
    std::vector<std::pair<std::string, double>> values;

    void set(const std::string &k, double v) { values.emplace_back(k, v); }
};

struct TaskResult
{
    std::string digest;
    std::uint64_t units = 0;
    Facts facts;
};

/** Device counters summed across MeasureFn calls on pool threads. */
struct DeviceTally
{
    std::atomic<std::uint64_t> acts{0}, simraOps{0}, comraCopies{0},
        trrRefreshes{0};
    std::atomic<std::size_t> populatedMax{0};

    void
    add(const dram::DeviceCounters &before, const dram::Device &dev)
    {
        const dram::DeviceCounters &after = dev.counters();
        acts += after.acts - before.acts;
        simraOps += after.simraOps - before.simraOps;
        comraCopies += after.comraCopies - before.comraCopies;
        trrRefreshes += after.trrRefreshes - before.trrRefreshes;
        std::size_t rows = dev.populatedRowCount();
        std::size_t cur = populatedMax.load();
        while (rows > cur && !populatedMax.compare_exchange_weak(cur, rows))
        {
        }
    }

    void
    report(Facts &f) const
    {
        f.set("dram.acts", static_cast<double>(acts.load()));
        f.set("dram.simra_ops", static_cast<double>(simraOps.load()));
        f.set("dram.comra_copies", static_cast<double>(comraCopies.load()));
        f.set("dram.trr_refreshes",
              static_cast<double>(trrRefreshes.load()));
        f.set("dram.populated_rows_max",
              static_cast<double>(populatedMax.load()));
    }
};

/** Per-workload sizes; `tiny` is the self-test scale. */
struct Sizes
{
    dram::RowId charVictims = 4;
    std::uint64_t trrHammers = 4000;
    int fleetModules = 256;
    std::uint64_t fuzzCandidates = 64;
    std::size_t fuzzChunk = 8;

    static Sizes
    of(const std::string &name)
    {
        Sizes s;
        if (name == "tiny") {
            s.charVictims = 1;
            s.trrHammers = 500;
            s.fleetModules = 8;
            s.fuzzCandidates = 24;
            s.fuzzChunk = 6;
        } else if (name != "normal") {
            fatal("perfbench: --size=%s: expected normal or tiny",
                  name.c_str());
        }
        return s;
    }
};

/** Everything a task needs besides its seed. */
class Context
{
  public:
    Context(std::string workload, const Sizes &sizes)
        : workload_(std::move(workload)), sizes_(sizes)
    {
        if (workload_ != "characterize" && workload_ != "trr_bypass" &&
            workload_ != "fleet" && workload_ != "fuzz")
            fatal("perfbench: unknown workload '%s'", workload_.c_str());
        jobs_ = workload_ == "fleet" || workload_ == "fuzz" ? 2 : 1;
    }

    int jobs() const { return jobs_; }
    SpanLog &spans() { return spans_; }

    TaskResult
    run(std::uint64_t seed)
    {
        const SpanScope task(spans_, "task", -1);
        if (workload_ == "characterize")
            return characterize(seed, task.id());
        if (workload_ == "trr_bypass")
            return trrBypass(seed, task.id());
        if (workload_ == "fleet")
            return fleet(seed, task.id());
        return fuzzCampaign(seed, task.id());
    }

  private:
    /**
     * Wrap MeasureFns so each call becomes a "measure" span under the
     * layer call and feeds the device tally.  Untraced runs get the
     * functions unchanged.
     */
    std::vector<hammer::MeasureFn>
    wrap(const std::vector<hammer::MeasureFn> &fns,
         const std::atomic<int> &parent, DeviceTally &tally)
    {
        if (!spans_.on())
            return fns;
        std::vector<hammer::MeasureFn> out;
        for (const hammer::MeasureFn &fn : fns) {
            out.push_back([this, fn, &parent, &tally](
                              hammer::ModuleTester &t, dram::RowId v) {
                const dram::DeviceCounters before = t.device().counters();
                std::uint64_t hc = 0;
                {
                    const SpanScope s(spans_, "measure", parent.load());
                    hc = fn(t, v);
                }
                tally.add(before, t.device());
                return hc;
            });
        }
        return out;
    }

    static void
    shardFacts(const hammer::PopulationTelemetry &tel, Facts &f)
    {
        std::vector<double> secs;
        for (const hammer::ShardReport &s : tel.shards)
            secs.push_back(s.seconds);
        std::sort(secs.begin(), secs.end());
        const double median = secs.empty() ? 0.0 : secs[secs.size() / 2];
        f.set("exec.shard_max_over_median",
              median > 0.0 ? secs.back() / median : 0.0);
    }

    TaskResult
    characterize(std::uint64_t seed, int task_span)
    {
        hammer::PopulationConfig cfg;
        cfg.moduleId = kFamily;
        cfg.modules = 1;
        cfg.victimsPerSubarray = sizes_.charVictims;
        cfg.oddOnly = true;
        cfg.seed = seed;
        cfg.rowsPerSubarray = 128;
        cfg.jobs = jobs_;

        const hammer::ModuleTester::Options opt;
        const std::vector<hammer::MeasureFn> measures = {
            [opt](hammer::ModuleTester &t, dram::RowId v) {
                return t.rhDouble(v, opt);
            },
            [opt](hammer::ModuleTester &t, dram::RowId v) {
                return t.comraDouble(v, opt);
            },
            [opt](hammer::ModuleTester &t, dram::RowId v) {
                return t.simraDouble(v, 2, opt);
            },
            [opt](hammer::ModuleTester &t, dram::RowId v) {
                return t.simraDouble(v, 8, opt);
            },
            [opt](hammer::ModuleTester &t, dram::RowId v) {
                return t.simraDouble(v, 16, opt);
            },
        };

        std::atomic<int> call{-1};
        DeviceTally tally;
        const auto fns = wrap(measures, call, tally);
        hammer::PopulationTelemetry tel;
        std::vector<std::vector<double>> series;
        {
            const SpanScope s(spans_, "call", task_span);
            call = s.id();
            series = hammer::measurePopulation(cfg, fns, &tel);
        }

        TaskResult r;
        Digest d;
        for (const std::vector<double> &v : series) {
            d.u64(v.size());
            for (double x : v)
                d.f64(x);
        }
        r.digest = d.hex();
        r.units = tel.workUnits();
        if (spans_.on()) {
            tally.report(r.facts);
            shardFacts(tel, r.facts);
        }
        return r;
    }

    TaskResult
    trrBypass(std::uint64_t seed, int task_span)
    {
        struct Cell
        {
            hammer::TrrTechnique tech;
            int param;
        };
        // The Fig-24 list.
        static const std::array<Cell, 9> cells = {{
            {hammer::TrrTechnique::RowHammer, 2},
            {hammer::TrrTechnique::RowHammer, 4},
            {hammer::TrrTechnique::Comra, 2},
            {hammer::TrrTechnique::Comra, 4},
            {hammer::TrrTechnique::Simra, 2},
            {hammer::TrrTechnique::Simra, 4},
            {hammer::TrrTechnique::Simra, 8},
            {hammer::TrrTechnique::Simra, 16},
            {hammer::TrrTechnique::Simra, 32},
        }};
        static const std::array<const char *, 3> arms = {"none", "trr",
                                                          "para"};

        TaskResult r;
        Digest d;
        DeviceTally tally;
        for (const Cell &c : cells) {
            hammer::TrrConfig tcfg;
            tcfg.nSided = c.param;
            tcfg.simraN = c.param;
            tcfg.hammersPerAggressor = sizes_.trrHammers;
            for (const char *arm : arms) {
                const std::string a = arm;
                dram::DeviceConfig dev = dram::makeConfig(kFamily, seed);
                dev.rowsPerSubarray = 128;
                std::optional<hammer::ModuleTester> tester;
                std::optional<mitigation::ParaMitigation> para;
                {
                    const SpanScope s(spans_, "build", task_span);
                    tester.emplace(dev);
                    if (a == "para")
                        para.emplace(mitigation::ParaConfig{},
                                     dev.rowsPerSubarray);
                }
                std::uint64_t flips = 0;
                {
                    const SpanScope s(spans_, "call", task_span, a);
                    flips = hammer::runTrrExperiment(
                        *tester, c.tech, tcfg, a == "trr",
                        para ? &*para : nullptr);
                }
                d.u64(flips);
                ++r.units;
                if (spans_.on())
                    tally.add(dram::DeviceCounters{}, tester->device());
            }
        }
        r.digest = d.hex();
        if (spans_.on())
            tally.report(r.facts);
        return r;
    }

    TaskResult
    fleet(std::uint64_t seed, int task_span)
    {
        hammer::PopulationConfig cfg;
        cfg.moduleId = kFamily;
        cfg.modules = sizes_.fleetModules;
        cfg.victimsPerSubarray = 1;  // one per tested subarray: 6
        cfg.seed = seed;
        cfg.rowsPerSubarray = 128;
        cfg.jobs = jobs_;

        hammer::ModuleTester::Options opt;
        opt.search.maxHammers = 100000;
        const std::vector<hammer::MeasureFn> measures = {
            [opt](hammer::ModuleTester &t, dram::RowId v) {
                return t.rhDouble(v, opt);
            }};

        std::atomic<int> call{-1};
        DeviceTally tally;
        const auto fns = wrap(measures, call, tally);
        hammer::SweepResult res;
        {
            const SpanScope s(spans_, "call", task_span);
            call = s.id();
            res = hammer::sweepPopulation(cfg, fns);
        }

        TaskResult r;
        Digest d;
        for (const stats::SampleSketch &sk : res.sketches)
            d.str(sk.serialize());
        r.digest = d.hex();
        r.units = res.telemetry.workUnits();
        if (spans_.on()) {
            tally.report(r.facts);
            shardFacts(res.telemetry, r.facts);
        }
        return r;
    }

    TaskResult
    fuzzCampaign(std::uint64_t seed, int task_span)
    {
        fuzz::CampaignConfig cfg;
        cfg.moduleId = kFamily;
        cfg.candidates = sizes_.fuzzCandidates;
        cfg.seed = seed;
        cfg.jobs = jobs_;
        cfg.chunk = sizes_.fuzzChunk;
        cfg.staticFilter = true;
        cfg.baseline = true;
        cfg.minimizeTop = 0;

        fuzz::CampaignResult res;
        {
            const SpanScope s(spans_, "call", task_span);
            res = fuzz::runCampaign(cfg);
        }

        TaskResult r;
        std::ostringstream corpus;
        fuzz::writeCorpusJsonl(res, corpus);
        Digest d;
        d.str(corpus.str());
        d.str(fuzz::summarize(res));
        r.digest = d.hex();
        r.units = res.generated;
        if (spans_.on()) {
            Facts &f = r.facts;
            f.set("fuzz.generated", static_cast<double>(res.generated));
            f.set("fuzz.unique", static_cast<double>(res.corpus.size()));
            f.set("fuzz.dedup_hits", static_cast<double>(res.dedupHits));
            f.set("fuzz.static_skips",
                  static_cast<double>(res.staticSkips));
            f.set("fuzz.executed", static_cast<double>(res.executed));
            f.set("fuzz.effective", static_cast<double>(res.effective));
        }
        return r;
    }

    std::string workload_;
    Sizes sizes_;
    int jobs_ = 1;
    SpanLog spans_;
};

// ---- the program's trace ---------------------------------------------

/**
 * Reads the pud::obs trace through a FIFO while it is written.  The
 * trace is far too large to keep (the device logs every TRR sampler
 * eviction: ~10^7 events per fuzz task), so the tap keeps only the
 * event types the self-time report needs and counts the rest by type.
 */
class TraceTap
{
  public:
    explicit TraceTap(std::string fifo) : fifo_(std::move(fifo))
    {
        ::unlink(fifo_.c_str());
        if (::mkfifo(fifo_.c_str(), 0600) != 0)
            fatal("perfbench: cannot create FIFO '%s'", fifo_.c_str());
        reader_ = std::thread([this] { drain(); });
    }

    ~TraceTap()
    {
        if (reader_.joinable())
            reader_.join();
        ::unlink(fifo_.c_str());
    }

    TraceTap(const TraceTap &) = delete;
    TraceTap &operator=(const TraceTap &) = delete;

    const std::string &fifo() const { return fifo_; }

    /** Wait for the writer to close the trace; then the data is final. */
    void join() { reader_.join(); }

    const std::vector<std::string> &kept() const { return kept_; }
    const std::map<std::string, std::uint64_t> &counts() const
    {
        return counts_;
    }

  private:
    void
    drain()
    {
        // Blocks until obs::trace().open() opens the write end.
        std::FILE *f = std::fopen(fifo_.c_str(), "r");
        if (!f)
            fatal("perfbench: cannot read FIFO '%s'", fifo_.c_str());
        char *line = nullptr;
        std::size_t cap = 0;
        ssize_t n = 0;
        static const char kEv[] = "{\"ev\":\"";
        while ((n = ::getline(&line, &cap, f)) > 0) {
            if (std::strncmp(line, kEv, sizeof kEv - 1) != 0)
                continue;
            const char *type = line + sizeof kEv - 1;
            const char *end = std::strchr(type, '"');
            if (!end)
                continue;
            const std::string ev(type, end);
            ++counts_[ev];
            if (ev == "program_end" || ev == "parallel_for") {
                while (n > 0 && line[n - 1] == '\n')
                    --n;
                kept_.emplace_back(line, static_cast<std::size_t>(n));
            }
        }
        std::free(line);
        std::fclose(f);
    }

    std::string fifo_;
    std::vector<std::string> kept_;
    std::map<std::string, std::uint64_t> counts_;
    std::thread reader_;  //!< declared last: started after the members
};

// ---- JSON output -----------------------------------------------------

void
jsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

/** Deltas of the program's obs counters over one task. */
std::vector<std::pair<std::string, std::uint64_t>>
counterDelta(const obs::MetricsSnapshot &before,
             const obs::MetricsSnapshot &after)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto &c : after.counters) {
        std::uint64_t prev = 0;
        for (const auto &b : before.counters)
            if (b.name == c.name)
                prev = b.value;
        out.emplace_back(c.name, c.value - prev);
    }
    return out;
}

/**
 * Peak RSS of this process image.  VmHWM, not ru_maxrss: across exec
 * the kernel carries ru_maxrss over from the forking parent, so a
 * driver started by Python would report the interpreter's footprint.
 */
long
peakRssKib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        fatal("perfbench: cannot read /proc/self/status");
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtol(line + 6, nullptr, 10);
    std::fclose(f);
    if (kib <= 0)
        fatal("perfbench: no VmHWM in /proc/self/status");
    return kib;
}

struct TaskRecord
{
    std::uint64_t seed;
    double ms;
    double cpuMs;
    std::vector<double> refMs;  //!< reference samples right after it
    TaskResult result;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

struct Phase
{
    bool traced = false;
    std::vector<TaskRecord> tasks;
};

/**
 * Run tasks for `seconds` (at least one).  After each task, untimed,
 * take reference samples in proportion to its time.  The traced phase
 * also snapshots the obs counters around each task.
 */
Phase
measure(Context &ctx, std::uint64_t seed, double seconds, bool traced)
{
    Phase ph;
    ph.traced = traced;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i == 0 || since(t0) < seconds; ++i) {
        TaskRecord rec;
        rec.seed = taskSeed(seed, i);
        obs::MetricsSnapshot before;
        if (traced)
            before = obs::metrics().snapshot();
        const double c0 = cpuSeconds();
        const Clock::time_point s0 = Clock::now();
        rec.result = ctx.run(rec.seed);
        rec.ms = 1e3 * since(s0);
        rec.cpuMs = 1e3 * (cpuSeconds() - c0);
        if (traced)
            rec.counters = counterDelta(before, obs::metrics().snapshot());
        const long samples =
            std::max(1L, std::lround(rec.ms / kTaskMsPerRefSample));
        for (long k = 0; k < samples; ++k)
            rec.refMs.push_back(refSampleMs());
        ph.tasks.push_back(std::move(rec));
    }
    return ph;
}

void
writeList(std::FILE *f, const std::vector<double> &xs)
{
    std::fputs("[", f);
    for (std::size_t i = 0; i < xs.size(); ++i)
        std::fprintf(f, "%s%.6f", i ? "," : "", xs[i]);
    std::fputs("]", f);
}

void
writePhase(std::FILE *f, const Phase &ph)
{
    std::fprintf(f, "{\"traced\":%s,\"tasks\":[",
                 ph.traced ? "true" : "false");
    for (std::size_t i = 0; i < ph.tasks.size(); ++i) {
        const TaskRecord &t = ph.tasks[i];
        std::fprintf(f,
                     "%s\n{\"seed\":%" PRIu64 ",\"ms\":%.6f,\"cpu_ms\":%.6f"
                     ",\"units\":%" PRIu64 ",\"digest\":\"%s\"",
                     i ? "," : "", t.seed, t.ms, t.cpuMs, t.result.units,
                     t.result.digest.c_str());
        std::fputs(",\"ref_ms\":", f);
        writeList(f, t.refMs);
        std::fputs(",\"facts\":{", f);
        bool first = true;
        for (const auto &[k, v] : t.result.facts.values) {
            std::fprintf(f, "%s", first ? "" : ",");
            jsonString(f, k);
            std::fprintf(f, ":%.17g", v);
            first = false;
        }
        for (const auto &[k, v] : t.counters) {
            std::fprintf(f, "%s", first ? "" : ",");
            jsonString(f, "obs." + k);
            std::fprintf(f, ":%" PRIu64, v);
            first = false;
        }
        std::fputs("}}", f);
    }
    std::fputs("]}", f);
}

void
writeSpans(std::FILE *f, const std::vector<Span> &spans)
{
    std::fputs("[", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%s\n[\"%s\",", i ? "," : "", s.layer);
        jsonString(f, s.tag);
        std::fprintf(f, ",%d,%d,%.9f,%.9f]", s.parent, s.lane, s.begin,
                     s.end);
    }
    std::fputs("]", f);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    const std::string workload = args.get("workload");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double seconds =
        static_cast<double>(args.getInt("seconds", 10));
    const bool traced = args.getInt("trace", 0) != 0;
    const std::string out_path = args.get("out");
    if (out_path.empty())
        fatal("perfbench: --out=FILE is required");
    Context ctx(workload, Sizes::of(args.get("size", "normal")));

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out)
        fatal("perfbench: cannot write '%s'", out_path.c_str());

    if (args.has("digests")) {
        std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%" PRIu64
                          ",\"digests\":[",
                     workload.c_str(), seed);
        for (std::size_t i = 0; i < kTaskSeeds; ++i)
            std::fprintf(out, "%s\"%s\"", i ? "," : "",
                         ctx.run(taskSeed(seed, i)).digest.c_str());
        std::fputs("]}\n", out);
        std::fclose(out);
        return 0;
    }

    // ---- set-up: process start to the first timed task ---------------
    const std::uint64_t warm_seed = taskSeed(kGoldenSeed, 0);
    const std::string warm_digest = ctx.run(warm_seed).digest;
    const double setup_s = since(kProcessStart);
    std::vector<double> setup_ref;
    for (int k = 0; k < kSetupRefSamples; ++k)
        setup_ref.push_back(refSampleMs());

    std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%" PRIu64
                      ",\"jobs\":%d,\"setup_s\":%.9f,"
                      "\"warmup\":{\"golden_seed\":%" PRIu64
                      ",\"index\":0,\"digest\":\"%s\"},"
                      "\"setup_ref_ms\":",
                 workload.c_str(), seed, ctx.jobs(), setup_s, kGoldenSeed,
                 warm_digest.c_str());
    writeList(out, setup_ref);
    if (!args.has("setup-only")) {
        // The traced run splits its time: an untraced phase for the
        // overhead baseline, then the traced phase.
        const double untraced_s = traced ? seconds / 2 : seconds;
        const Phase plain = measure(ctx, seed, untraced_s, false);
        std::fputs(",\"phases\":[", out);
        writePhase(out, plain);
        if (traced) {
            const std::string trace_path = args.get("trace-file");
            if (trace_path.empty())
                fatal("perfbench: --trace=1 needs --trace-file=FILE");
            TraceTap tap(trace_path + ".fifo");
            obs::metrics().setEnabled(true);
            ctx.spans().start();
            obs::trace().open(tap.fifo());
            const Phase tr = measure(ctx, seed, seconds / 2, true);
            obs::trace().close();
            tap.join();
            ctx.spans().stop();
            obs::metrics().setEnabled(false);
            std::fputs(",\n", out);
            writePhase(out, tr);
            std::fputs("],\"spans\":", out);
            writeSpans(out, ctx.spans().spans());
            std::fputs(",\"trace_events\":{", out);
            bool first = true;
            for (const auto &[ev, n] : tap.counts()) {
                std::fprintf(out, "%s\"%s\":%" PRIu64, first ? "" : ",",
                             ev.c_str(), n);
                first = false;
            }
            std::fputs("}", out);
            std::FILE *kept = std::fopen(trace_path.c_str(), "w");
            if (!kept)
                fatal("perfbench: cannot write '%s'", trace_path.c_str());
            for (const std::string &line : tap.kept())
                std::fprintf(kept, "%s\n", line.c_str());
            std::fclose(kept);
        } else {
            std::fputs("]", out);
        }
    }
    std::fprintf(out, ",\"peak_rss_kib\":%ld}\n", peakRssKib());
    if (std::fclose(out) != 0)
        fatal("perfbench: failed writing '%s'", out_path.c_str());
    return 0;
}
