/**
 * @file
 * Static protocol and timing analyzer for bender test programs.
 *
 * lintProgram() walks a Program without executing it and reports every
 * condition that would make the run fatal (protocol violations, bad
 * data indices, unbalanced loops), silently wrong (a timing violation
 * that matches no PuD idiom and therefore corrupts a characterization
 * sweep), or slow (a hot loop that defeats the executor fast-path).
 *
 * PuDHammer's methodology is built on *deliberate* timing violations:
 * a PRE->ACT gap below tRP is exactly how CoMRA copies and an
 * ACT-PRE-ACT with both gaps grossly violated is exactly how SiMRA
 * opens a row group.  The analyzer therefore never treats a violated
 * nominal parameter as an error; instead it walks each bank through
 * the device's own protocol kernel (dram::BankProtocol) and labels
 * each violation by the transition it resolves to: *intended* (Note)
 * or *suspicious* (Warning).
 *
 * The walk mirrors the executor: loop bodies are traversed twice (the
 * second pass observes cross-iteration gaps at the back edge) with
 * diagnostics deduplicated per (code, instruction), and the exact
 * duration is computed arithmetically from the trip counts.
 */

#ifndef PUD_LINT_LINTER_H
#define PUD_LINT_LINTER_H

#include "bender/program.h"
#include "dram/config.h"
#include "lint/diag.h"
#include "lint/mitigation_absint.h"

namespace pud::lint {

struct EffectReport;  // effects.h

/** Optional analyses and rendering knobs of one lint pass. */
struct LintOptions
{
    /**
     * Run the static disturbance-effect predictor (absint + effects)
     * and merge its DisturbanceLikely / DisturbanceImpossible
     * diagnostics into the result.  Off by default: the predictor's
     * verdicts depend on the sweep's intent (a deliberately-below-
     * threshold bisection step is not a bug), so only callers that
     * know they want a full-budget program checked opt in.
     */
    bool effects = false;

    /**
     * Run the row-state dataflow pass (lint/dataflow.h) and merge its
     * Df* diagnostics into the result.  Off by default for the same
     * reason as `effects`: reading a never-written victim row is the
     * *point* of a characterization sweep, so the verdicts only help
     * callers checking a compute-style program.
     */
    bool dataflow = false;

    /**
     * Run the mitigation bypass certifier (lint/mitigation_absint.h)
     * against the mechanisms enabled here and merge its Mit*
     * diagnostics into the result.  Implies running the effect
     * predictor internally (the certifier annotates its victim list),
     * but Disturbance* diagnostics are still merged only under
     * `effects`.
     */
    MitigationSpec mitigations;

    /**
     * Keep at most this many diagnostics per code; the rest collapse
     * into one DiagFlood note ("and N more").  0 disables the cap.
     */
    std::size_t maxRepeatsPerCode = 8;
};

/** Statically analyze `program` against a device configuration. */
LintResult lintProgram(const bender::Program &program,
                       const dram::DeviceConfig &cfg);

/**
 * As above with explicit options.  When `report_out` is non-null the
 * effect predictor runs regardless of `opts.effects` and its full
 * per-victim report is stored there (diagnostics are merged only when
 * `opts.effects` is set).
 */
LintResult lintProgram(const bender::Program &program,
                       const dram::DeviceConfig &cfg,
                       const LintOptions &opts,
                       EffectReport *report_out = nullptr);

/**
 * Lint and fatal() on the first error-severity finding; returns the
 * result so callers can additionally surface warnings.  `context`
 * names the caller in the fatal message.
 */
LintResult requireClean(const bender::Program &program,
                        const dram::DeviceConfig &cfg,
                        const char *context,
                        const LintOptions &opts = {});

} // namespace pud::lint

#endif // PUD_LINT_LINTER_H
