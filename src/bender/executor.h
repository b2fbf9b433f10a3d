/**
 * @file
 * Interpreter for bender test programs against the DRAM device model.
 *
 * The executor issues each instruction at its scheduled time.  Hot
 * loops take an exact *fast-path*: the body runs live for two warm-up
 * iterations, one steady-state iteration is recorded (damage deltas,
 * TRR sampler pushes, REF anchors, touched rows), and the remaining
 * trip count is replayed arithmetically.  Loop bodies containing REF
 * replay iteration by iteration -- TRR RNG draws and refresh counters
 * advance exactly as live execution would, with a *phase break* back
 * to live execution whenever a refresh is about to land on a
 * loop-damaged row -- while REF-free bodies commit the whole remaining
 * count in one step.  Nested loops fast-path inside naive outer
 * iterations, and an outer loop records across its inner loops when
 * the cost model says that wins.  Only RD in the body forces fully
 * naive execution (results are collected per iteration).  All of this
 * is exact under the linear damage-accrual model and verified
 * bit-identical against naive execution in the tests, TRR included.
 *
 * Programs are compiled to an ExecPlan (bender/plan.h) and cached by
 * *shape* -- trip counts excluded -- so an HC_first bisection's dozens
 * of near-identical probes pay compilation and the pre-flight lint
 * once.  Cumulative counters are exposed via stats() for telemetry.
 */

#ifndef PUD_BENDER_EXECUTOR_H
#define PUD_BENDER_EXECUTOR_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bender/plan.h"
#include "bender/program.h"
#include "dram/device.h"
#include "lint/mitigation_absint.h"

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
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    std::uint64_t phaseBreaks = 0;  //!< replays interrupted by a refresh
    std::uint64_t prefixFills = 0;  //!< prefix logs filled
    std::uint64_t prefixReuses = 0;  //!< loop prefixes applied from a log
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
     * program and would tax hot characterization loops).  The verdict
     * is cached with the compiled plan, so a given program *shape* is
     * analyzed once, at the trip counts it is first run with.
     */
    void setPreflight(bool on) { preflight_ = on; }
    bool preflight() const { return preflight_; }

    /**
     * Additionally run the static disturbance-effect predictor during
     * the pre-flight and warn() on its warning-severity findings (a
     * hammer-grade program that cannot flip bits on the configured
     * module).  Off by default: the predictor's verdicts depend on
     * sweep intent, so harnesses opt in where a full-budget program
     * is known to be checked.  Implies nothing unless the pre-flight
     * itself is enabled.
     */
    void setPreflightEffects(bool on) { preflightEffects_ = on; }
    bool preflightEffects() const { return preflightEffects_; }

    /**
     * Additionally run the row-state dataflow pass (lint/dataflow.h)
     * during the pre-flight and warn() on its warning-severity
     * findings -- merges over never-written rows, activation groups
     * crossing a subarray boundary, control-row writes stranded across
     * one.  Off by default for the same reason as the effect
     * predictor: reading never-written victim rows is the *point* of a
     * characterization sweep.  Implies nothing unless the pre-flight
     * itself is enabled.
     */
    void setPreflightDataflow(bool on) { preflightDataflow_ = on; }
    bool preflightDataflow() const { return preflightDataflow_; }

    /**
     * Additionally run the mitigation bypass certifier
     * (lint/mitigation_absint.h) against the mechanisms enabled in
     * `spec` during the pre-flight and warn() on its warning-severity
     * findings (a certain or uncertifiable bypass of the assumed
     * mitigations).  An empty spec (no mechanism enabled) disables the
     * pass.  Implies nothing unless the pre-flight itself is enabled.
     */
    void
    setPreflightMitigations(const lint::MitigationSpec &spec)
    {
        preflightMitigations_ = spec;
    }
    const lint::MitigationSpec &
    preflightMitigations() const
    {
        return preflightMitigations_;
    }

    /** Cumulative fast-path / plan-cache counters. */
    const ExecStats &stats() const { return stats_; }

    /**
     * Forget every compiled plan and prefix log and zero the stats, as
     * if freshly constructed (the settings above are kept; so are the
     * logs' buffers).
     */
    void
    reset()
    {
        planCache_.clear();
        lastPlan_.reset();
        freePrefixLogs();
        stats_ = ExecStats{};
    }

    /** Minimum trip count before the fast-path engages. */
    static constexpr std::uint64_t kFastPathThreshold =
        bender::kFastPathThreshold;

  private:
    /** Look up (or compile + pre-flight) the program's cached plan. */
    const std::shared_ptr<const ExecPlan> &planFor(const Program &program);

    /** Loop `loop_index`'s prefix log, taking a free one if it has none. */
    dram::Device::PrefixLog &prefixLog(std::size_t loop_index);

    /** Forget every prefix log, keeping its buffers. */
    void freePrefixLogs();

    void preflightCheck(const Program &program);

    /** Execute loop `loop_id`'s body once (Program::npos: the program). */
    void execBody(const Program &program, const ExecPlan &plan,
                  const RunCosts &costs, std::size_t loop_id, Time &cursor,
                  ExecResult &result);

    /** Run one counted loop (fast-path or naive). */
    void execLoop(const Program &program, const ExecPlan &plan,
                  const RunCosts &costs, std::size_t loop_index,
                  std::uint64_t n, Time &cursor, ExecResult &result);

    void execOne(const Program &program, const Inst &inst, Time &cursor,
                 ExecResult &result);

    struct CachedPlan
    {
        std::shared_ptr<const ExecPlan> plan;
        bool linted = false;
    };

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
    bool preflightEffects_ = false;
    bool preflightDataflow_ = false;
    lint::MitigationSpec preflightMitigations_;
    ExecStats stats_;
    RunCosts costs_;  //!< the running program's, buffer kept warm
    std::unordered_map<std::uint64_t, std::vector<CachedPlan>>
        planCache_;

    /**
     * The plan that ran last -- held, so the cache cannot drop it and
     * hand its address to another -- and whether the running program
     * is a repeated run of it.  Its flat top-level loops keep a prefix
     * log each (DESIGN.md §4.2); `loop` is npos for a log another plan
     * left behind, kept for its buffers.
     */
    std::shared_ptr<const ExecPlan> lastPlan_;
    bool repeatRun_ = false;
    struct PrefixSlot
    {
        std::size_t loop;
        dram::Device::PrefixLog log;
    };
    std::vector<PrefixSlot> prefixLogs_;
};

} // namespace pud::bender

#endif // PUD_BENDER_EXECUTOR_H
