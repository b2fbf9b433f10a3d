/**
 * @file
 * pud::obs metrics -- a process-wide registry of named counters and
 * fixed-bucket (power-of-two) histograms for the runtime layers.
 *
 * Design constraints (and why):
 *
 *  - *Lock-free hot path*: instrumentation sites sit inside the
 *    executor's command loop and the device's per-ACT paths, so an
 *    increment must never contend.  Every thread owns a private shard
 *    of plain relaxed-atomic slots; the only lock is taken once per
 *    thread (shard registration) and once per snapshot.
 *  - *Determinism*: the parallel runner guarantees bit-identical
 *    results for every --jobs value, and the metrics output keeps that
 *    promise: only deterministic quantities (operation counts, device
 *    time, sizes) are ever recorded -- wall-clock timing belongs in
 *    the trace (obs/trace.h), which makes no determinism claim.
 *    Snapshots merge all shards and sort by name, so the printout is
 *    byte-identical across thread counts and schedules.
 *  - *Zero cost when off*: every record path first reads one relaxed
 *    atomic bool; with --metrics absent that is the entire overhead.
 *
 * Instrumentation idiom (the id lookup is paid once per call site):
 *
 *   if (obs::metricsOn()) {
 *       static const obs::CounterId id =
 *           obs::metrics().counterId("executor.phase_breaks");
 *       obs::metrics().add(id);
 *   }
 */

#ifndef PUD_OBS_METRICS_H
#define PUD_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pud::obs {

using CounterId = std::size_t;
using HistId = std::size_t;

namespace detail {
/**
 * The global on/off flag lives outside the registry singleton so the
 * hot-path gate (`metricsOn()`) compiles down to one relaxed load --
 * calling into the Meyers singleton would cost an out-of-line call
 * plus its init guard on every ACT.
 */
inline std::atomic<bool> g_metricsEnabled{false};
} // namespace detail

/** Merged, name-sorted view of the registry at one point in time. */
struct MetricsSnapshot
{
    struct Counter
    {
        std::string name;
        std::uint64_t value = 0;
    };

    struct Hist
    {
        std::string name;
        std::uint64_t total = 0;  //!< sum of all bucket counts
        /** buckets[0] counts value 0; buckets[b] counts
         *  [2^(b-1), 2^b) for b >= 1. */
        std::vector<std::uint64_t> buckets;
    };

    std::vector<Counter> counters;
    std::vector<Hist> hists;
};

/** Registry of named counters and power-of-two-bucket histograms. */
class MetricsRegistry
{
  public:
    /** Hard caps keep per-thread shards fixed-size (lock-free). */
    static constexpr std::size_t kMaxCounters = 64;
    static constexpr std::size_t kMaxHists = 32;
    /** Bucket 0 = value 0, bucket b = [2^(b-1), 2^b), b in 1..64. */
    static constexpr std::size_t kHistBuckets = 65;

    static MetricsRegistry &instance();

    void
    setEnabled(bool on)
    {
        detail::g_metricsEnabled.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return detail::g_metricsEnabled.load(
            std::memory_order_relaxed);
    }

    /** Intern a counter name; idempotent, fatal past kMaxCounters. */
    CounterId counterId(const std::string &name);

    /** Intern a histogram name; idempotent, fatal past kMaxHists. */
    HistId histId(const std::string &name);

    /** Lock-free: touches only the calling thread's shard. */
    void
    add(CounterId id, std::uint64_t delta = 1)
    {
        if (!enabled())
            return;
        shard().counters[id].fetch_add(delta,
                                       std::memory_order_relaxed);
    }

    /** Lock-free: one bucket increment in the thread's shard. */
    void
    observe(HistId id, std::uint64_t value)
    {
        if (!enabled())
            return;
        shard().hists[id][bucketOf(value)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /** Bucket index of a value (0, or its bit width). */
    static std::size_t
    bucketOf(std::uint64_t v)
    {
        std::size_t b = 0;
        while (v) {
            ++b;
            v >>= 1;
        }
        return b;
    }

    /** Inclusive-exclusive bounds of a bucket (b >= 1). */
    static std::uint64_t
    bucketLow(std::size_t b)
    {
        return b <= 1 ? 0 : std::uint64_t(1) << (b - 1);
    }

    /** Merge every shard; counters/hists come back sorted by name. */
    MetricsSnapshot snapshot() const;

    /**
     * Print the snapshot, deterministically: one line per counter,
     * one per histogram (non-empty buckets only), sorted by name.
     * Only deterministic quantities are recorded, so for a fixed
     * workload this output is byte-identical across --jobs values.
     */
    void print(std::FILE *out) const;

    /** Zero every shard (tests; not safe against concurrent writers). */
    void reset();

    /**
     * Fold a snapshot from another process into this registry (names
     * are interned on the fly, values add into the calling thread's
     * shard).  This is how the popsweep supervisor propagates worker
     * metrics: every worker dumps its snapshot beside its checkpoint
     * and the supervisor merges them, so the final name-sorted print
     * stays deterministic across worker counts -- counter sums are
     * partition-independent.  Works regardless of the enabled flag.
     */
    void merge(const MetricsSnapshot &snap);

  private:
    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
        std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>,
                   kMaxHists>
            hists{};
    };

    MetricsRegistry() = default;

    Shard &shard();
    Shard &registerShard();

    mutable std::mutex mu_;  //!< guards names and the shard list
    std::vector<std::string> counterNames_;
    std::vector<std::string> histNames_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

/** The process-wide registry. */
inline MetricsRegistry &
metrics()
{
    return MetricsRegistry::instance();
}

/** Cheap global check instrumentation sites branch on. */
inline bool
metricsOn()
{
    return detail::g_metricsEnabled.load(std::memory_order_relaxed);
}

/**
 * Snapshot <-> JSON, for cross-process metrics propagation (worker
 * sidecar files).  The JSON is deterministic: a name-sorted snapshot
 * serializes to byte-identical output, and
 * snapshotFromJson(snapshotToJson(s)) reproduces s exactly (empty
 * histogram buckets are elided on both sides).
 */
std::string snapshotToJson(const MetricsSnapshot &snap);

/** Strict parser for snapshotToJson output; nullopt when malformed. */
std::optional<MetricsSnapshot> snapshotFromJson(std::string_view json);

} // namespace pud::obs

#endif // PUD_OBS_METRICS_H
