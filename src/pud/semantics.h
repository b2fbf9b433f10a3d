/**
 * @file
 * Declarative operation semantics of the PuD macro-ops.
 *
 * Every PuD primitive -- CoMRA copy, SiMRA group write, replicated
 * majority -- has *row-state* side effects beyond its timing behaviour:
 * rows are read, overwritten, or clobbered, and whether a replicated
 * majority can ever tie depends only on the replication weights.  This
 * header captures those effects as pure functions over physical row
 * addresses and bank geometry, with no device or policy state.
 *
 * Two consumers keep each other honest:
 *
 *  - pud::ops::PudEngine validates and accounts every macro-op through
 *    this table before issuing commands, and
 *  - pud::lint's row-state dataflow pass (lint/dataflow.h) interprets
 *    bender programs abstractly against the *same* table,
 *
 * so the static analyzer and the dynamic engine cannot drift: a
 * geometry rule added here is enforced in both worlds at once, and the
 * differential checker (check/diffcheck.h) asserts the agreement on
 * randomized programs.
 */

#ifndef PUD_PUD_SEMANTICS_H
#define PUD_PUD_SEMANTICS_H

#include <optional>
#include <utility>
#include <vector>

#include "dram/config.h"
#include "dram/types.h"

namespace pud::semantics {

using dram::RowId;
using dram::SubarrayId;

/** Bank geometry, decoupled from a live Device. */
struct Geometry
{
    RowId rowsPerSubarray = 0;
    RowId rowsPerBank = 0;
    bool supportsSimra = false;

    SubarrayId
    subarrayOf(RowId phys) const
    {
        return phys / rowsPerSubarray;
    }

    bool
    sameSubarray(RowId a, RowId b) const
    {
        return subarrayOf(a) == subarrayOf(b);
    }

    bool
    contains(RowId phys) const
    {
        return phys < rowsPerBank;
    }
};

/** Extract the geometry of one bank from a device configuration. */
Geometry geometryOf(const dram::DeviceConfig &cfg);

/**
 * One macro-op's row-state footprint: which physical rows it consumes,
 * which it leaves holding a defined value, and which it leaves with
 * contents no caller may rely on.  Invalid operations carry a static
 * reason and empty row sets (a rejected op must not touch DRAM).
 */
struct MacroEffect
{
    bool valid = false;
    const char *reason = "";         //!< why invalid (static text)
    std::vector<RowId> reads;        //!< rows whose contents are consumed
    std::vector<RowId> writes;       //!< rows ending with a defined value
    std::vector<RowId> clobbered;    //!< rows ending undefined

    static MacroEffect
    reject(const char *why)
    {
        MacroEffect e;
        e.reason = why;
        return e;
    }
};

/** RowClone copy src -> dst (both physical). */
MacroEffect comraCopy(const Geometry &g, RowId src_phys, RowId dst_phys);

/**
 * SiMRA group write: open the n-aligned block containing `block_phys`
 * and overwrite every row.  `writes` is the whole block (base first).
 */
MacroEffect simraGroupWrite(const Geometry &g, RowId block_phys, int n);

/**
 * Can a weighted bitline majority tie?  True iff some non-empty,
 * non-full subset of the weights sums to exactly n/2 (n even); the
 * bitline then floats at half charge and the resolved bit is undefined
 * on real chips.  The engine's canonical replications -- (3,3,2) for
 * MAJ3, (4,3,3,3,3) for MAJ5 -- are tie-free by construction.
 */
bool tieable(const std::vector<int> &weights, int n);

/** Fully-expanded plan of one replicated-majority macro-op. */
struct MajorityPlan
{
    MacroEffect effect;

    /** Physical base of the n-aligned scratch block. */
    RowId base = 0;

    /** Staging RowClone copies, in issue order: (src, dst) physical. */
    std::vector<std::pair<RowId, RowId>> staging;

    /** True when the replication weights admit a bitline tie. */
    bool tieable = false;
};

/**
 * Validate and expand a replicated majority: operands staged into the
 * n-aligned block containing `scratch_phys` with the given per-operand
 * replication counts, then one SiMRA group activation resolves the
 * weighted majority into every block row.  All geometry rules (counts
 * positive and summing to n, block inside one subarray, operands in
 * the block's subarray) are checked before any row set is emitted.
 */
MajorityPlan
replicatedMajorityPlan(const Geometry &g,
                       const std::vector<RowId> &operands_phys,
                       const std::vector<int> &replication,
                       RowId scratch_phys, int n);

/**
 * The in-subarray control row flanking the 8-aligned block containing
 * `scratch_phys`: the row after the block when that stays inside the
 * subarray, otherwise the row before.  nullopt when no valid flank
 * exists (block crosses the subarray edge, or the subarray is exactly
 * the block).  Validating *both* candidates before returning is what
 * fixes the historic control-row clobber: `base - 1` underflows RowId
 * at physical row 0 and crosses into the previous subarray whenever
 * the block is the first of its subarray.
 */
std::optional<RowId> andOrControlRow(const Geometry &g,
                                     RowId scratch_phys);

} // namespace pud::semantics

#endif // PUD_PUD_SEMANTICS_H
