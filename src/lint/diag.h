/**
 * @file
 * Diagnostic vocabulary of the bender-program static analyzer.
 *
 * Every finding is a Diag: a stable machine-readable code, a fixed
 * severity, the instruction it anchors to, and a human-readable
 * message.  The severity taxonomy is deliberate:
 *
 *  - Error:   the program will fatal() inside the executor or device,
 *             or silently read garbage (protocol violations, bad data
 *             indices, unbalanced loops).  Pre-flight checks refuse to
 *             run these.
 *  - Warning: the program runs, but something is *suspicious* -- most
 *             importantly a timing-parameter violation that matches no
 *             PuD idiom (an accidental sub-tRP gap corrupts HC_first
 *             sweeps without any error at execution time).
 *  - Note:    explanatory findings: a violated timing that matches the
 *             CoMRA/SiMRA signature (i.e. is *intended*), or why a hot
 *             loop will / will not take the executor fast-path.
 */

#ifndef PUD_LINT_DIAG_H
#define PUD_LINT_DIAG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace pud::lint {

/** Diagnostic severity; fixed per code (see severityOf). */
enum class Severity : std::uint8_t
{
    Note,
    Warning,
    Error,
};

/** Stable diagnostic codes (names are part of the CLI/JSON surface). */
enum class Code : std::uint8_t
{
    // ---- loop structure --------------------------------------------------
    UnbalancedLoop,       //!< LoopBegin without a matching LoopEnd
    EmptyLoop,            //!< loop body contains no instructions
    ZeroTripLoop,         //!< trip count 0: the body never executes
    FastPathEligible,     //!< hot loop will be replayed arithmetically
    FastPathIneligible,   //!< hot loop must run naively (with reason)

    // ---- per-bank DDR protocol -------------------------------------------
    BankOutOfRange,       //!< command targets a nonexistent bank
    RowOutOfRange,        //!< ACT targets a nonexistent row
    ActWhileOpen,         //!< ACT on a bank with an open row (no PRE)
    RdOnClosedBank,       //!< RD with no open row
    WrOnClosedBank,       //!< WR with no open row
    PreOnIdleBank,        //!< PRE on an already-precharged bank (no-op)
    RefWithOpenBank,      //!< REF while a bank has an open row
    NegativeGap,          //!< command time would go backwards
    OpenBankAtEnd,        //!< program ends with a row still open

    // ---- data table -------------------------------------------------------
    WrBadDataIndex,       //!< Wr.dataIndex outside the data table
    WrWidthMismatch,      //!< data entry width != device row width

    // ---- timing classifier -------------------------------------------------
    IntendedComra,        //!< violated tRP matching the CoMRA signature
    IntendedSimra,        //!< violated tRAS+tRP matching SiMRA
    SimraUnsupported,     //!< SiMRA signature on a chip that ignores it
    SuspiciousPreToAct,   //!< sub-tRP gap matching no PuD idiom
    SuspiciousActToPre,   //!< sub-tRAS on-time matching no PuD idiom
    SuspiciousActToAct,   //!< sub-tRC ACT spacing (custom timing sets)
    ColumnBeforeTrcd,     //!< RD/WR earlier than tRCD after ACT
    RefRecoveryShort,     //!< command earlier than tRFC after REF
    RefreshWindowExceeded,//!< runs past tREFW without a single REF
    RefreshCadenceSparse, //!< REFs present but too sparse for tREFW

    // ---- static effect prediction (absint + effects) ----------------------
    DisturbanceLikely,    //!< a victim row can plausibly flip
    DisturbanceImpossible,//!< a hammer-grade sweep that cannot flip bits

    // ---- row-state dataflow (dataflow.h) -----------------------------------
    DfReadBeforeWrite,    //!< RD of a row the program never wrote
    DfReadUndefined,      //!< RD of a charge-shared/clobbered row
    DfDeadWrite,          //!< staged value overwritten before any read
    DfControlRowClobber,  //!< boundary write stranded across a subarray
    DfAggressorAsData,    //!< hammer-blast-radius row consumed as data
    DfGroupCrossesSubarray,//!< SiMRA group spans a subarray boundary
    DfGroupOverlap,       //!< SiMRA group swallows its own operand row
    DfMajorityUninitInput,//!< merge mixes staged and never-written rows
    DfMajorityTie,        //!< replication weights admit a bitline tie

    // ---- mitigation bypass certifier (mitigation_absint.h) -----------------
    MitBypassCertain,     //!< every enabled mitigation provably inert
    MitBypassPossible,    //!< no mitigation provably stops this victim
    MitMitigatedCertain,  //!< some mitigation provably prevents flips
    MitTrrSamplerStarved, //!< TRR draws diluted by non-adjacent ACTs
    MitAboThresholdSkirted,//!< PRAC never alerts under flip-grade load

    DiagFlood,            //!< repeats of one code capped ("and N more")
};

/** printf-style formatting into a std::string (messages up to 511 bytes). */
std::string format(const char *fmt, ...);

/** Machine-readable name of a code (stable CLI/JSON surface). */
const char *name(Code code);

/** Lowercase severity name. */
const char *name(Severity severity);

/** The fixed severity of a code. */
Severity severityOf(Code code);

/** True for the Df* row-state dataflow code family (dataflow.h). */
inline bool
isDataflowCode(Code code)
{
    return code >= Code::DfReadBeforeWrite &&
           code <= Code::DfMajorityTie;
}

/** True for the Mit* mitigation code family (mitigation_absint.h). */
inline bool
isMitigationCode(Code code)
{
    return code >= Code::MitBypassCertain &&
           code <= Code::MitAboThresholdSkirted;
}

/** One finding of the analyzer. */
struct Diag
{
    Code code;
    Severity severity;
    std::size_t instIndex;  //!< anchor instruction in Program::insts()
    std::string message;
};

/** Everything one lint pass produces. */
struct LintResult
{
    std::vector<Diag> diags;

    /** Exact program duration, loop trip counts included. */
    Time duration = 0;

    /**
     * Diagnostics hidden by the per-code flood cap (each capped code
     * carries one DiagFlood note naming its suppressed count).
     */
    std::size_t suppressed = 0;

    /**
     * Flood-suppressed diagnostics by severity (indexed by the
     * Severity enum): suppression hides repeats from the listing but
     * must not hide them from the run summary or from --werror exit
     * decisions, so the capped counts stay visible here.
     */
    std::size_t suppressedBySeverity[3] = {0, 0, 0};

    /** Visible (listed) findings of one severity. */
    std::size_t
    count(Severity severity) const
    {
        std::size_t n = 0;
        for (const Diag &d : diags)
            n += d.severity == severity;
        return n;
    }

    /** Findings of one severity including flood-suppressed repeats. */
    std::size_t
    totalCount(Severity severity) const
    {
        return count(severity) +
               suppressedBySeverity[static_cast<std::size_t>(severity)];
    }

    /** No error-severity findings (warnings/notes allowed). */
    bool clean() const { return totalCount(Severity::Error) == 0; }
};

} // namespace pud::lint

#endif // PUD_LINT_DIAG_H
