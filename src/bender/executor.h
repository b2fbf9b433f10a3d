/**
 * @file
 * Interpreter for bender test programs against the DRAM device model.
 *
 * The executor issues each instruction at its scheduled time.  Hot
 * loops take a *fast-path*: the body runs live for two warm-up
 * iterations, one steady-state iteration is recorded (damage deltas,
 * TRR sampler pushes, REF count, touched rows), and the remaining
 * trip count is replayed arithmetically.  REF-free bodies commit the
 * whole remaining count in one step; with TRR off, a body containing
 * REF commits every iteration before the first stripe refresh that
 * would land on a loop-damaged row, with a *phase break* back to live
 * execution there.  A record whose refresh hit the loop's own rows is
 * re-recorded once and then finished naively.  A loop that can never
 * replay -- a REF with TRR on, any body under a mitigation hook
 * (Device::loopReplayable) -- runs live instead: a flat body segment
 * by segment, its REF-free segments re-applied from run logs where
 * the device allows (DESIGN.md §4.2); a nested one records twice and
 * finishes naively.  A flat REF-bearing loop that replays runs its
 * unrecorded live iterations -- warm-ups, phase breaks, the tail --
 * segment by segment too.  Nested loops fast-path inside naive outer
 * iterations, and an outer loop records across its inner loops when
 * the cost model says that wins.  Only RD in the body forces fully
 * naive execution (results are collected per iteration).
 *
 * The contract, as the tests check it: arithmetic replay scales one
 * iteration's float deposits, so it matches naive execution within a
 * tolerance (1e-4 + 0.2% per cell, `expectSameRun`), not bit for bit.
 * The prefix and segment logs re-apply the same float adds in the
 * same order, so they match live execution bit for bit (`sameBits`,
 * `expectSameDevice`).
 *
 * Each run's costs (bender/plan.h) are recomputed in one pass.  The
 * executor keeps a copy of the last run's *shape* -- the program with
 * its trip counts excluded -- so the dozens of probes of an HC_first
 * bisection, which differ only in a trip count, are recognized as
 * repeats: they pay the pre-flight lint once and reuse the loops'
 * prefix logs.  Cumulative counters are exposed via stats() for
 * telemetry.
 */

#ifndef PUD_BENDER_EXECUTOR_H
#define PUD_BENDER_EXECUTOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "bender/plan.h"
#include "bender/program.h"
#include "dram/device.h"

namespace pud::bender {

/** Outcome of one program run. */
struct ExecResult
{
    Time startTime = 0;
    Time endTime = 0;
    std::vector<RowData> reads;  //!< one entry per executed Rd
    std::uint64_t fastPathIterations = 0;  //!< iterations skipped via replay
};

/** Cumulative per-executor counters (telemetry). */
struct ExecStats
{
    std::uint64_t fastPathIterations = 0;  //!< replayed, never executed
    /** Runs that repeat / change the last run's shape. */
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    std::uint64_t phaseBreaks = 0;  //!< replays interrupted by a refresh
    std::uint64_t prefixFills = 0;  //!< prefix logs filled
    std::uint64_t prefixReuses = 0;  //!< loop prefixes applied from a log
    std::uint64_t segmentFills = 0;    //!< segment logs filled
    std::uint64_t segmentApplies = 0;  //!< segments applied from a log
};

/** Executes programs against a Device. */
class Executor
{
  public:
    explicit Executor(dram::Device &device) : device_(&device) {}

    /** Run a program; commands start just after the device's clock. */
    ExecResult run(const Program &program);

    /** Enable/disable the loop fast-path (ablation / verification). */
    void setFastPath(bool on) { fastPath_ = on; }
    bool fastPath() const { return fastPath_; }

    /**
     * Enable/disable the pre-flight lint check: before running, the
     * program is statically analyzed (pud::lint) and error-severity
     * findings -- protocol violations the device would fatal on, bad
     * data indices -- abort the run with a diagnostic instead of
     * failing deep inside the device model.  Defaults to on in debug
     * builds and off in release builds (the analysis walks the whole
     * program and would tax hot characterization loops).  A run that
     * repeats the last run's shape is not analyzed again, so an
     * HC_first bisection is analyzed once, at the trip counts of its
     * first probe run with the pre-flight on.
     */
    void setPreflight(bool on) { preflight_ = on; }
    bool preflight() const { return preflight_; }

    /** Cumulative fast-path / shape / run-log counters. */
    const ExecStats &stats() const { return stats_; }

    /**
     * Forget the last run's shape and every prefix log and zero the
     * stats, as if freshly constructed (the settings above are kept;
     * so are the buffers).
     */
    void
    reset()
    {
        haveShape_ = false;
        freePrefixLogs();
        stats_ = ExecStats{};
    }

    /** Minimum trip count before the fast-path engages. */
    static constexpr std::uint64_t kFastPathThreshold =
        bender::kFastPathThreshold;

  private:
    /** Whether the program repeats the last run's shape: the same
     *  instructions, LoopBegin counts aside, and data-table widths. */
    bool sameShape(const Program &program) const;

    /** Loop `loop_index`'s prefix log, taking a free one if it has none. */
    dram::Device::RunLog &prefixLog(std::size_t loop_index);

    /** Forget every prefix log, keeping its buffers. */
    void freePrefixLogs();

    /** Execute loop `loop_id`'s body once (Program::npos: the program). */
    void execBody(const Program &program, std::size_t loop_id,
                  Time &cursor, ExecResult &result);

    /** Run one counted loop (fast-path or naive). */
    void execLoop(const Program &program, std::size_t loop_index,
                  std::uint64_t n, Time &cursor, ExecResult &result);

    /** A REF-free run of a loop body's commands, [begin, end), and its
     *  log in segmentLogs_ (npos: none, it runs live). */
    struct Segment
    {
        std::size_t begin, end, log;
    };

    /** Split flat loop `loop_index`'s body into segments_, each with
     *  a fresh log in segmentLogs_ where one is free. */
    void planSegments(const Program &program, std::size_t loop_index);

    /** Run one iteration of the planned loop, segment by segment. */
    void execSegments(const Program &program, std::size_t loop_index,
                      Time &cursor, ExecResult &result);

    /** Run one segment from its log, or live (filling the log). */
    void runSegment(const Program &program, const Segment &seg,
                    Time &cursor, ExecResult &result);

    void execOne(const Program &program, const Inst &inst, Time &cursor,
                 ExecResult &result);

    dram::Device *device_;
    bool fastPath_ = true;
    /** True while the steady-state iteration of an enclosing loop is
     *  being recorded: nested fast-paths must not engage (replayed
     *  deposits would bypass the recording). */
    bool recording_ = false;
#ifdef NDEBUG
    bool preflight_ = false;
#else
    bool preflight_ = true;
#endif
    ExecStats stats_;
    RunCosts costs_;  //!< the running program's, buffer kept warm

    /**
     * The last run's shape (its LoopBegin counts are not compared),
     * whether the pre-flight has analyzed it, and whether the running
     * program repeats it.  The shape's flat top-level loops keep a
     * prefix log each (DESIGN.md §4.2); `loop` is npos for a log
     * another shape left behind, kept for its buffers.
     */
    bool haveShape_ = false;
    std::vector<Inst> shapeInsts_;
    std::vector<std::uint32_t> shapeDataBits_;
    bool shapeLinted_ = false;
    bool repeatRun_ = false;
    struct PrefixSlot
    {
        std::size_t loop;
        dram::Device::RunLog log;
    };
    std::vector<PrefixSlot> prefixLogs_;

    /** Ways per segment log: TRR's refreshes leave a segment's rows in
     *  a handful of states from one REF window to the next. */
    static constexpr std::size_t kSegmentWays = 8;

    /**
     * The log the running loop's segments that issue the same commands
     * as [begin, end) share (DESIGN.md §4.2).  `debt` counts failures
     * less successes, floored at 0; the logs live for one loop, their
     * buffers for the executor.
     */
    struct SegmentLog
    {
        std::size_t begin = 0, end = 0;
        std::array<dram::Device::RunLog, kSegmentWays> ways;
        std::size_t next = 0;  //!< the way the next fill replaces
        unsigned debt = 0;
    };
    std::vector<SegmentLog> segmentLogs_;
    std::vector<Segment> segments_;  //!< the running loop's
};

} // namespace pud::bender

#endif // PUD_BENDER_EXECUTOR_H
