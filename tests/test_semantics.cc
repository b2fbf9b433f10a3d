/**
 * @file
 * Unit tests for the declarative PuD op-semantics table: geometry
 * rules, tie-ability of replication weights, and the control-row
 * selection at subarray boundaries.
 */

#include <gtest/gtest.h>

#include "dram/config.h"
#include "pud/semantics.h"

namespace {

using namespace pud;
using namespace pud::semantics;

Geometry
smallGeom(dram::RowId rows_per_subarray = 64,
          dram::SubarrayId subarrays = 2, bool simra = true)
{
    Geometry g;
    g.rowsPerSubarray = rows_per_subarray;
    g.rowsPerBank = rows_per_subarray * subarrays;
    g.supportsSimra = simra;
    return g;
}

TEST(Semantics, GeometryOfConfig)
{
    dram::DeviceConfig cfg = dram::makeConfig("HMA81GU7AFR8N-UH");
    cfg.subarraysPerBank = 4;
    cfg.rowsPerSubarray = 32;
    const Geometry g = geometryOf(cfg);
    EXPECT_EQ(g.rowsPerSubarray, 32u);
    EXPECT_EQ(g.rowsPerBank, 128u);
    EXPECT_TRUE(g.supportsSimra);
    EXPECT_EQ(g.subarrayOf(31), 0u);
    EXPECT_EQ(g.subarrayOf(32), 1u);
    EXPECT_TRUE(g.sameSubarray(0, 31));
    EXPECT_FALSE(g.sameSubarray(31, 32));
}

// ---- CoMRA copy ---------------------------------------------------------

TEST(Semantics, ComraCopyEffects)
{
    const Geometry g = smallGeom();
    const MacroEffect e = comraCopy(g, 10, 20);
    ASSERT_TRUE(e.valid);
    EXPECT_EQ(e.reads, std::vector<dram::RowId>{10});
    EXPECT_EQ(e.writes, std::vector<dram::RowId>{20});
    EXPECT_TRUE(e.clobbered.empty());

    EXPECT_FALSE(comraCopy(g, 10, 10).valid);
    EXPECT_FALSE(comraCopy(g, 10, 100).valid);  // other subarray
    EXPECT_FALSE(comraCopy(g, 10, 500).valid);  // outside the bank
}

// ---- SiMRA group write --------------------------------------------------

TEST(Semantics, SimraGroupWriteEffects)
{
    const Geometry g = smallGeom();
    const MacroEffect e = simraGroupWrite(g, 35, 8);
    ASSERT_TRUE(e.valid);
    ASSERT_EQ(e.writes.size(), 8u);
    EXPECT_EQ(e.writes.front(), 32u);
    EXPECT_EQ(e.writes.back(), 39u);

    EXPECT_FALSE(simraGroupWrite(g, 35, 3).valid);
    EXPECT_FALSE(simraGroupWrite(g, 35, 0).valid);
    EXPECT_FALSE(simraGroupWrite(g, 35, -8).valid);
    EXPECT_FALSE(simraGroupWrite(g, 35, 64).valid);
    EXPECT_FALSE(simraGroupWrite(smallGeom(64, 2, false), 35, 8).valid);
    // 32-row block at base 32 would reach past the 64-row subarray
    // only when rowsPerSubarray < 32; with rps 16 the 32-block crosses.
    EXPECT_FALSE(simraGroupWrite(smallGeom(16, 4), 5, 32).valid);
}

// ---- tie-ability --------------------------------------------------------

TEST(Semantics, TieableSubsetSum)
{
    // The engine's canonical replications are tie-free.
    EXPECT_FALSE(tieable({3, 3, 2}, 8));
    EXPECT_FALSE(tieable({4, 3, 3, 3, 3}, 16));
    // Naive even splits tie.
    EXPECT_TRUE(tieable({4, 4}, 8));
    EXPECT_TRUE(tieable({2, 2, 4}, 8));
    EXPECT_TRUE(tieable({1, 3, 4}, 8));
    EXPECT_TRUE(tieable({8, 8}, 16));
    // A single operand replicated n times can never tie (the subset
    // summing to n/2 would need to split one operand's weight).
    EXPECT_FALSE(tieable({8}, 8));
    // Odd n never ties.
    EXPECT_FALSE(tieable({3, 2}, 5));
}

// ---- replicated majority ------------------------------------------------

TEST(Semantics, ReplicatedMajorityPlanStagesInOrder)
{
    const Geometry g = smallGeom();
    const MajorityPlan plan =
        replicatedMajorityPlan(g, {50, 51, 52}, {3, 3, 2}, 43, 8);
    ASSERT_TRUE(plan.effect.valid);
    EXPECT_FALSE(plan.tieable);
    EXPECT_EQ(plan.base, 40u);
    ASSERT_EQ(plan.staging.size(), 8u);
    const std::vector<std::pair<dram::RowId, dram::RowId>> want{
        {50, 40}, {50, 41}, {50, 42}, {51, 43},
        {51, 44}, {51, 45}, {52, 46}, {52, 47}};
    EXPECT_EQ(plan.staging, want);
    EXPECT_EQ(plan.effect.reads,
              (std::vector<dram::RowId>{50, 51, 52}));
    ASSERT_EQ(plan.effect.writes.size(), 8u);
    EXPECT_TRUE(plan.effect.clobbered.empty());
}

TEST(Semantics, ReplicatedMajorityPlanRejections)
{
    const Geometry g = smallGeom();
    // Shape errors.
    EXPECT_FALSE(replicatedMajorityPlan(g, {1, 2, 3}, {3, 3}, 43, 8)
                     .effect.valid);
    EXPECT_FALSE(replicatedMajorityPlan(g, {1, 2, 3}, {3, 3, 3}, 43, 8)
                     .effect.valid);
    EXPECT_FALSE(replicatedMajorityPlan(g, {1, 2, 3}, {4, 4, 0}, 43, 8)
                     .effect.valid);
    EXPECT_FALSE(replicatedMajorityPlan(g, {}, {}, 43, 8).effect.valid);
    // Operand in another subarray.
    EXPECT_FALSE(
        replicatedMajorityPlan(g, {1, 100, 3}, {3, 3, 2}, 43, 8)
            .effect.valid);
    // Rejections must not emit any row sets.
    const MajorityPlan r =
        replicatedMajorityPlan(g, {1, 2, 3}, {3, 3}, 43, 8);
    EXPECT_TRUE(r.effect.reads.empty());
    EXPECT_TRUE(r.effect.writes.empty());
    EXPECT_TRUE(r.staging.empty());
}

TEST(Semantics, ReplicatedMajorityPlanMarksTieableAsClobber)
{
    const Geometry g = smallGeom();
    const MajorityPlan plan =
        replicatedMajorityPlan(g, {50, 51}, {4, 4}, 43, 8);
    ASSERT_TRUE(plan.effect.valid);
    EXPECT_TRUE(plan.tieable);
    // A tie-able merge leaves the block undefined, not written.
    EXPECT_TRUE(plan.effect.writes.empty());
    ASSERT_EQ(plan.effect.clobbered.size(), 8u);
}

// ---- control-row selection ----------------------------------------------

TEST(Semantics, AndOrControlRowFlanks)
{
    const Geometry g = smallGeom();  // 2 x 64-row subarrays
    // Interior block: the row after the block.
    EXPECT_EQ(andOrControlRow(g, 43).value(), 48u);
    // Last block of the subarray: the row before.
    EXPECT_EQ(andOrControlRow(g, 57).value(), 55u);
    // First block of the *bank*: base - 1 would underflow / cross; the
    // flank after the block is used instead.
    EXPECT_EQ(andOrControlRow(g, 0).value(), 8u);
    // First block of subarray 1: base - 1 would cross into subarray 0;
    // flank after is valid.
    EXPECT_EQ(andOrControlRow(g, 64).value(), 72u);
    // Subarray exactly one block wide: no flank exists.
    EXPECT_FALSE(andOrControlRow(smallGeom(8, 4), 0).has_value());
}

} // namespace
