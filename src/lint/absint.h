/**
 * @file
 * Loop-summarizing abstract interpreter for bender programs.
 *
 * summarizeEffects() computes the *aggregate* effects of a program --
 * per-(bank, physical row) activation and close-event counts split by
 * technique class, total aggressor on-time, min/max inter-ACT spacing,
 * and the REF cadence -- without unrolling loops.  Each loop body is
 * walked at most twice (a warm-up pass plus one steady-state pass that
 * observes the back-edge gaps), and the remaining (k - 2) iterations
 * are replayed arithmetically: additive fields scale linearly with the
 * trip count, min/max fields are fixed points of the steady state, and
 * the time cursor jumps by (k - 2) * bodyDuration.  This is the same
 * closed-form-in-the-trip-count reasoning the executor fast-path uses,
 * so analysis cost is O(program size), independent of iteration
 * counts.
 *
 * Close events are classified by the device's own bank protocol
 * kernel (dram::BankProtocol), which is what lets the effect predictor
 * (effects.h) fold the summary through the same threshold model the
 * device applies at execution time.
 */

#ifndef PUD_LINT_ABSINT_H
#define PUD_LINT_ABSINT_H

#include <cstdint>
#include <map>
#include <vector>

#include "bender/program.h"
#include "dram/config.h"
#include "dram/types.h"
#include "util/units.h"

namespace pud::lint {

/** Aggregate activity of one physical row over the whole program. */
struct RowActivity
{
    /** ACT commands opening this row (alone or in a SiMRA group). */
    std::uint64_t acts = 0;

    /** Close events per technique class (indexed by TechClass). */
    std::uint64_t closes[3] = {0, 0, 0};

    /** Summed aggressor on-time per technique class. */
    Time onTime[3] = {0, 0, 0};

    /** Summed CoMRA PRE->ACT copy delay over Comra-class closes. */
    Time comraDelaySum = 0;

    /** Summed SiMRA ACT->PRE / PRE->ACT gaps over Simra-class closes. */
    Time simraActToPreSum = 0;
    Time simraPreToActSum = 0;

    /** Largest SiMRA group this row was ever activated in (1: never). */
    int simraN = 1;

    /** Min/max spacing between consecutive ACTs to this row. */
    Time minInterAct = 0;
    Time maxInterAct = 0;

    /** First ACT instruction index, as a diagnostic anchor. */
    std::size_t firstActIndex = 0;

    // ---- worst-case per-close condition factors --------------------------
    // The damage gains are monotone in each timing parameter
    // (pressGain grows with on-time, comraDelayGain falls with delay,
    // simraTimingGain grows with both gaps), so the extremes below let
    // the mitigation pass (mitigation_absint) bound the damage of any
    // *single* close without assuming the per-class averages are
    // representative.

    /** Largest single-close aggressor on-time per technique class. */
    Time maxOnTime[3] = {0, 0, 0};

    /** Smallest CoMRA PRE->ACT copy delay (-1: no Comra close). */
    Time minComraDelay = -1;

    /** Largest SiMRA ACT->PRE / PRE->ACT gaps over Simra closes. */
    Time maxSimraActToPre = 0;
    Time maxSimraPreToAct = 0;

    // ---- REF-epoch close counts ------------------------------------------
    // Closes are also tracked per refresh epoch (the stretch between
    // consecutive REFs, including the partial epochs before the first
    // and after the last REF).  maxEpochCloses bounds how much a row
    // can hammer between two REFs anywhere in the program, which is
    // what a REF-driven mitigation (TRR) caps per-victim damage with.

    /** Closes per class in the current (still open) epoch. */
    std::uint64_t epochCloses[3] = {0, 0, 0};

    /** Max closes per class over any single refresh epoch. */
    std::uint64_t maxEpochCloses[3] = {0, 0, 0};

    std::uint64_t
    totalCloses() const
    {
        return closes[0] + closes[1] + closes[2];
    }
};

/** The symbolic summary of one program. */
struct ProgramEffects
{
    /** Exact duration, loop trip counts included (saturating). */
    Time duration = 0;

    /**
     * False when the program has an unbalanced loop: the tail was
     * analyzed once, so counts are a lower bound, not exact.
     */
    bool exact = true;

    std::uint64_t totalActs = 0;
    std::uint64_t totalRefs = 0;

    /**
     * Instructions visited by the analysis.  Bounded by the program
     * size (times two passes per loop nesting level), *independent of
     * trip counts* -- the regression handle for the no-unrolling
     * guarantee.
     */
    std::uint64_t steps = 0;

    /** Per-(bank, physical row) activity, keyed by rowKey(). */
    std::map<std::uint64_t, RowActivity> rows;

    // ---- REF cadence -----------------------------------------------------

    /** Worst gap between consecutive REFs (0 with fewer than 2 REFs). */
    Time maxRefGap = 0;

    /** Instruction index of the REF ending the worst gap. */
    std::size_t maxRefGapIndex = 0;

    /** Issue times of the first/last REF; -1 with no REF. */
    Time firstRefAt = -1;
    Time lastRefAt = -1;
};

/** Map key of one physical row within the summary. */
inline std::uint64_t
rowKey(dram::BankId bank, dram::RowId phys)
{
    return (static_cast<std::uint64_t>(bank) << 32) | phys;
}

/** Look up a row's activity; nullptr when the row was never touched. */
const RowActivity *findRow(const ProgramEffects &fx, dram::BankId bank,
                           dram::RowId phys);

// ---- TRR sampler trace ---------------------------------------------------

/**
 * Abstract TRR sampler window at one REF for one bank.
 *
 * The walked passes maintain the exact ring of the last
 * Device::kTrrWindow sampler pushes, so REFs reached by a walked pass
 * carry the exact window multiset (`exact`).  REFs accounted for by
 * the loop tail (or downstream of one) carry an over-approximation:
 * the window *rows* are a superset of any row the real window can
 * hold at that point (walked window plus every row the loop body
 * pushes), the counts are unreliable, and `multiplicity` says how
 * many tail REFs the point stands for.  `fillLo` is a lower bound on
 * the real fill in every case (pushes only accumulate).
 */
struct SamplerRefPoint
{
    std::size_t instIndex = 0;  //!< REF instruction index (anchor)
    dram::BankId bank = 0;
    std::uint64_t multiplicity = 1;
    std::size_t fillLo = 0;
    bool exact = true;
    std::map<dram::RowId, std::uint64_t> window;  //!< row -> pushes
};

/**
 * Pass cap on (REF, bank) sampler trace points.  Past this the trace
 * stops covering every REF and flips SamplerTrace::truncated, which
 * forces the mitigation pass to degrade its universally-quantified
 * Certain verdicts to Possible (never unsoundly Certain).
 */
constexpr std::size_t kMaxSamplerRefPoints = 4096;

/** Sampler occupancy trace of one program (all banks, all REFs). */
struct SamplerTrace
{
    /** Ring capacity (Device::kTrrWindow). */
    std::size_t window = 0;

    /** One point per (REF, bank), in program order. */
    std::vector<SamplerRefPoint> refs;

    /** Total sampler pushes per bank (saturating). */
    std::vector<std::uint64_t> pushes;

    /**
     * True when the pass cap on ref points was hit; the trace no
     * longer covers every REF and universally-quantified (Certain)
     * conclusions must degrade to Possible.
     */
    bool truncated = false;
};

/**
 * Compute the symbolic summary of `program` on a device config.  When
 * `trace` is non-null it is filled with the abstract TRR sampler
 * occupancy (slower; keyed to the same recordAct sites Device's
 * trrRecord uses).
 */
ProgramEffects summarizeEffects(const bender::Program &program,
                                const dram::DeviceConfig &cfg,
                                SamplerTrace *trace);
ProgramEffects summarizeEffects(const bender::Program &program,
                                const dram::DeviceConfig &cfg);

} // namespace pud::lint

#endif // PUD_LINT_ABSINT_H
