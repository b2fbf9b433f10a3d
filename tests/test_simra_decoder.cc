/**
 * @file
 * Unit tests for the SiMRA row-decoder model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dram/simra_decoder.h"

namespace {

using namespace pud::dram;

TEST(SimraDecoder, SameRowIsSingle)
{
    const SimraDecoder d(512);
    const auto set = d.activatedSet(100, 100);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0], 100u);
}

TEST(SimraDecoder, HammingOneGivesPair)
{
    const SimraDecoder d(512);
    const auto set = d.activatedSet(100, 101);  // differ in bit 0
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set[0], 100u);
    EXPECT_EQ(set[1], 101u);
}

TEST(SimraDecoder, FourRowCombination)
{
    const SimraDecoder d(512);
    // Offsets 0b000 and 0b110 differ in bits 1, 2: combos {0, 2, 4, 6}.
    const auto set = d.activatedSet(64, 64 + 6);
    ASSERT_EQ(set.size(), 4u);
    EXPECT_EQ(set, (std::vector<RowId>{64, 66, 68, 70}));
}

TEST(SimraDecoder, ThirtyTwoRowContiguousBlock)
{
    const SimraDecoder d(512);
    // Hamming distance 5 including bit 0: rows 0..31.
    const auto set = d.activatedSet(0, 31);
    ASSERT_EQ(set.size(), 32u);
    for (RowId i = 0; i < 32; ++i)
        EXPECT_EQ(set[i], i);
}

TEST(SimraDecoder, HammingFiveWithoutBitZeroFallsBack)
{
    const SimraDecoder d(512);
    // Bits 1..5 differ (mask 0b111110): unresolvable, only the issued
    // rows activate (paper footnote 3: no sandwiched victims were
    // found for 32-row activation).
    const auto set = d.activatedSet(0, 62);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set[0], 0u);
    EXPECT_EQ(set[1], 62u);
}

TEST(SimraDecoder, HammingSixFallsBack)
{
    const SimraDecoder d(512);
    const auto set = d.activatedSet(0, 63);  // 6 differing bits
    ASSERT_EQ(set.size(), 2u);
}

TEST(SimraDecoder, SubarrayOffsetsRespected)
{
    const SimraDecoder d(512);
    // Rows in the second subarray: the combination stays there.
    const auto set = d.activatedSet(512 + 8, 512 + 14);
    ASSERT_EQ(set.size(), 4u);
    for (RowId r : set) {
        EXPECT_GE(r, 512u);
        EXPECT_LT(r, 1024u);
    }
}

TEST(SimraDecoder, ResultIsSortedAndContainsIssuedRows)
{
    const SimraDecoder d(1024);
    const auto set = d.activatedSet(200, 216 + 6);  // hd of (200, 222)
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    EXPECT_TRUE(std::find(set.begin(), set.end(), 200u) != set.end());
    EXPECT_TRUE(std::find(set.begin(), set.end(), 222u) != set.end());
}

/** Group size is 2^hamming-distance for resolvable pairs. */
class SizeSweep : public ::testing::TestWithParam<int>
{};

TEST_P(SizeSweep, PowerOfTwoSizes)
{
    const int k = GetParam();
    const SimraDecoder d(512);
    // Mask with bits 0..k-1: rows base..base+2^k-1.
    const RowId base = 128;
    const RowId mask = (RowId(1) << k) - 1;
    const auto set = d.activatedSet(base, base + mask);
    EXPECT_EQ(set.size(), std::size_t(1) << k);
}

INSTANTIATE_TEST_SUITE_P(Hamming, SizeSweep, ::testing::Values(1, 2, 3, 4, 5));

/** The enumeration activatedSet() used before activatedSetInto(). */
std::vector<RowId>
sortedEnumeration(RowId rows_per_subarray, RowId r1, RowId r2)
{
    const RowId base = (r1 / rows_per_subarray) * rows_per_subarray;
    const RowId mask = (r1 - base) ^ (r2 - base);
    const int hd = __builtin_popcount(mask);
    if (hd == 0)
        return {r1};
    if (hd > 5 || (hd == 5 && !(mask & 1)))
        return {std::min(r1, r2), std::max(r1, r2)};
    std::vector<RowId> bits;
    for (int b = 0; b < 32; ++b)
        if (mask & (RowId(1) << b))
            bits.push_back(b);
    const RowId common = (r1 - base) & ~mask;
    std::vector<RowId> rows;
    for (RowId combo = 0; combo < (RowId(1) << bits.size()); ++combo) {
        RowId offset = common;
        for (std::size_t i = 0; i < bits.size(); ++i)
            if (combo & (RowId(1) << i))
                offset |= RowId(1) << bits[i];
        rows.push_back(base + offset);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

TEST(SimraDecoder, IntoMatchesSortedEnumerationForEveryPair)
{
    for (const RowId rps : {RowId(128), RowId(512)}) {
        const SimraDecoder d(rps);
        const RowId base = rps;  // the second subarray
        std::vector<RowId> out{7, 7, 7};  // stale contents are replaced
        for (RowId r1 = base; r1 < base + rps; ++r1) {
            for (RowId r2 = base; r2 < base + rps; ++r2) {
                d.activatedSetInto(r1, r2, out);
                ASSERT_EQ(out, sortedEnumeration(rps, r1, r2))
                    << "rps " << rps << " pair " << r1 << "," << r2;
            }
        }
    }
}

} // namespace
