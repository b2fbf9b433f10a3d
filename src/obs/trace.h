/**
 * @file
 * pud::obs trace -- a structured JSONL event sink.
 *
 * One line per event, flat JSON objects only.  Every event carries
 *
 *   ev : string  event type (see DESIGN.md section 7 for the schema)
 *   ts : double  seconds since the trace was opened (steady clock)
 *
 * plus typed event-specific fields.  The writer is a process-wide
 * singleton guarded by a mutex: events from worker threads interleave
 * at line granularity and `ts` is read under the same lock, so
 * timestamps are monotonically non-decreasing in file order --
 * tools/check_trace.py asserts exactly that.
 *
 * The trace intentionally makes NO determinism promise: it records
 * wall-clock timing and thread interleaving, the two things the
 * deterministic metrics output (obs/metrics.h) must exclude.
 *
 * Instrumentation idiom:
 *
 *   if (obs::traceOn())
 *       obs::trace().event("phase_break", {{"loop", loop}, {"it", it}});
 */

#ifndef PUD_OBS_TRACE_H
#define PUD_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>

namespace pud::obs {

namespace detail {
/**
 * Hot-path gate; lives outside the writer singleton so `traceOn()`
 * is a single relaxed load instead of an out-of-line singleton call.
 */
inline std::atomic<bool> g_traceEnabled{false};
} // namespace detail

/** One "key": value pair of a trace event. */
struct TraceField
{
    enum class Kind
    {
        Int,
        Uint,
        Double,
        Bool,
        Str
    };

    TraceField(const char *k, std::int64_t v)
        : key(k), kind(Kind::Int), i(v)
    {}
    TraceField(const char *k, int v)
        : key(k), kind(Kind::Int), i(v)
    {}
    TraceField(const char *k, std::uint64_t v)
        : key(k), kind(Kind::Uint), u(v)
    {}
    TraceField(const char *k, unsigned v)
        : key(k), kind(Kind::Uint), u(v)
    {}
    TraceField(const char *k, double v)
        : key(k), kind(Kind::Double), d(v)
    {}
    TraceField(const char *k, bool v)
        : key(k), kind(Kind::Bool), b(v)
    {}
    TraceField(const char *k, const char *v)
        : key(k), kind(Kind::Str), s(v)
    {}
    TraceField(const char *k, const std::string &v)
        : key(k), kind(Kind::Str), s(v.c_str())
    {}

    const char *key;
    Kind kind;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0;
    bool b = false;
    const char *s = nullptr;
};

/** Process-wide JSONL trace writer; inert until open() succeeds. */
class TraceWriter
{
  public:
    static TraceWriter &instance();

    /**
     * Open (truncate) @p path and emit `trace_open`.  Fatal if the
     * file cannot be created.  Registers an atexit hook so the
     * closing `trace_close` event is emitted even when a binary
     * simply returns from main().
     */
    void open(const std::string &path);

    /** Emit `trace_close` (with total wall seconds) and close. */
    void close();

    bool
    enabled() const
    {
        return detail::g_traceEnabled.load(
            std::memory_order_relaxed);
    }

    /** Append one event line; no-op when the trace is closed. */
    void event(const char *type,
               std::initializer_list<TraceField> fields);

    const std::string &
    path() const
    {
        return path_;
    }

  private:
    TraceWriter() = default;

    double elapsedLocked() const;
    static void writeEscaped(std::FILE *f, const char *s);

    std::mutex mu_;
    std::FILE *file_ = nullptr;
    std::string path_;
    std::chrono::steady_clock::time_point start_;
};

/** The process-wide trace writer. */
inline TraceWriter &
trace()
{
    return TraceWriter::instance();
}

/** Cheap global check instrumentation sites branch on. */
inline bool
traceOn()
{
    return detail::g_traceEnabled.load(std::memory_order_relaxed);
}

} // namespace pud::obs

#endif // PUD_OBS_TRACE_H
