/**
 * @file
 * Compiled execution plans for bender programs.
 *
 * The Program builder records the loop tree and each body's fast-path
 * class (Program::loops()).  An ExecPlan adds each loop's flat body
 * cost and is cached by *shape*: two programs that differ only in
 * loop trip counts (exactly what an HC_first bisection produces,
 * dozens of probes per victim) share one plan.  Everything
 * trip-count-dependent (durations, RD totals, record-vs-replay cost
 * estimates) lives in RunCosts, recomputed per run in O(#loops).
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

/**
 * Per-iteration cost of one loop body, or of the whole program run
 * once.  A plan holds the flat costs (directly-owned instructions
 * only); RunCosts folds nested loops in at the run's trip counts.
 */
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
 * The compiled, trip-count-independent data of a program: per-loop
 * flat costs, plus the normalized shape used for cache identity.  The
 * loop tree itself is the Program's (Program::loops()).
 */
class ExecPlan
{
  public:
    static ExecPlan compile(const Program &program);

    /** Flat body costs, indexed like Program::loops(). */
    const std::vector<BodyCost> &loops() const { return loops_; }

    /** Flat cost of the instructions outside every loop. */
    const BodyCost &top() const { return top_; }

    /** Trip-count-independent hash (= shapeHashOf of the source). */
    std::uint64_t shapeHash() const { return shapeHash_; }

    /** Exact shape equality, ignoring loop trip counts. */
    bool matchesShape(const Program &program) const;

  private:
    std::vector<BodyCost> loops_;
    BodyCost top_;

    std::uint64_t shapeHash_ = 0;
    std::vector<Inst> shapeInsts_;       //!< LoopBegin counts zeroed
    std::vector<std::uint32_t> dataBits_;  //!< data-table entry widths
};

/** Trip-count-independent program hash (loop counts excluded). */
std::uint64_t shapeHashOf(const Program &program);

/**
 * Per-run, trip-count-dependent costs: body durations, RD totals, and
 * the estimates that decide whether recording an outer loop beats
 * letting its inner loops fast-path on their own.
 */
struct RunCosts
{
    std::vector<BodyCost> loops;  //!< indexed like Program::loops()
    BodyCost total;               //!< the whole program

    /** Compute the program's costs into this object, reusing its
     *  buffer. */
    void compute(const ExecPlan &plan, const Program &program);
};

} // namespace pud::bender

#endif // PUD_BENDER_PLAN_H
