/**
 * @file
 * Per-run execution costs of bender programs.
 *
 * The Program builder records the loop tree and each body's fast-path
 * class (Program::loops()).  RunCosts adds, at the run's trip counts,
 * each loop's body duration, RD total and the record-vs-replay cost
 * estimates the executor's fast-path decisions read.  It is computed
 * per run in one pass over the instructions plus one over the loops.
 */

#ifndef PUD_BENDER_PLAN_H
#define PUD_BENDER_PLAN_H

#include <cstdint>
#include <vector>

#include "bender/program.h"

namespace pud::bender {

/**
 * Minimum trip count before the executor's fast-path engages: two
 * warm-up iterations plus one recorded one must leave enough remaining
 * iterations to amortize the recording.  (Also re-exported as
 * Executor::kFastPathThreshold.)
 */
inline constexpr std::uint64_t kFastPathThreshold = 8;

/** Per-iteration cost of one loop body, or of the whole program run
 *  once (nested loops folded in at their trip counts). */
struct BodyCost
{
    Time duration = 0;            //!< saturating at the Time range ends
    std::uint64_t rds = 0;        //!< RD commands
    /** Commands issued by one live iteration (nested unrolled). */
    std::uint64_t naiveCost = 0;
    /** Commands issued by one fast-pathed iteration. */
    std::uint64_t fastCost = 0;
};

/**
 * Per-run, trip-count-dependent costs: body durations, RD totals, and
 * the estimates that decide whether recording an outer loop beats
 * letting its inner loops fast-path on their own.
 */
struct RunCosts
{
    std::vector<BodyCost> loops;  //!< indexed like Program::loops()
    BodyCost total;               //!< the whole program

    /** Compute a balanced program's costs into this object, reusing
     *  its buffer. */
    void compute(const Program &program);
};

} // namespace pud::bender

#endif // PUD_BENDER_PLAN_H
