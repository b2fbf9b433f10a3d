/**
 * @file
 * Unit tests for data patterns and RowData.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dram/datapattern.h"
#include "util/rng.h"

namespace {

using namespace pud::dram;

TEST(DataPattern, Negation)
{
    EXPECT_EQ(negate(DataPattern::P00), DataPattern::PFF);
    EXPECT_EQ(negate(DataPattern::PFF), DataPattern::P00);
    EXPECT_EQ(negate(DataPattern::PAA), DataPattern::P55);
    EXPECT_EQ(negate(DataPattern::P55), DataPattern::PAA);
}

TEST(DataPattern, Checkerboard)
{
    EXPECT_TRUE(isCheckerboard(DataPattern::PAA));
    EXPECT_TRUE(isCheckerboard(DataPattern::P55));
    EXPECT_FALSE(isCheckerboard(DataPattern::P00));
    EXPECT_FALSE(isCheckerboard(DataPattern::PFF));
}

TEST(RowData, FillPatterns)
{
    RowData zeros(128, DataPattern::P00);
    RowData ones(128, DataPattern::PFF);
    RowData alt(128, DataPattern::P55);
    for (ColId c = 0; c < 128; ++c) {
        EXPECT_FALSE(zeros.get(c));
        EXPECT_TRUE(ones.get(c));
        // 0x55 = 0b01010101 LSB-first: even bit positions are 1.
        EXPECT_EQ(alt.get(c), c % 2 == 0);
    }
}

TEST(RowData, SetGetToggle)
{
    RowData d(100);
    EXPECT_FALSE(d.get(63));
    d.set(63, true);
    EXPECT_TRUE(d.get(63));
    d.toggle(63);
    EXPECT_FALSE(d.get(63));
    d.set(64, true);  // crosses word boundary
    EXPECT_TRUE(d.get(64));
    EXPECT_FALSE(d.get(65));
}

TEST(RowData, Equality)
{
    RowData a(96, DataPattern::PAA);
    RowData b(96, DataPattern::PAA);
    EXPECT_EQ(a, b);
    b.toggle(95);
    EXPECT_NE(a, b);
}

TEST(RowData, DiffCount)
{
    RowData a(256, DataPattern::P00);
    RowData b(256, DataPattern::P00);
    EXPECT_EQ(a.diffCount(b), 0u);
    b.toggle(0);
    b.toggle(100);
    b.toggle(255);
    EXPECT_EQ(a.diffCount(b), 3u);

    const RowData x(256, DataPattern::P00);
    const RowData y(256, DataPattern::PFF);
    EXPECT_EQ(x.diffCount(y), 256u);
}

TEST(RowData, NonWordMultipleTailMasked)
{
    // 70 bits: filling 0xFF must not set bits past 70, so diff with an
    // explicit 70-bit all-ones row is zero.
    RowData filled(70, DataPattern::PFF);
    RowData manual(70);
    for (ColId c = 0; c < 70; ++c)
        manual.set(c, true);
    EXPECT_EQ(filled, manual);
    EXPECT_EQ(filled.diffCount(manual), 0u);
}

/**
 * The bit-at-a-time rule assignMajority replaces: per column, count
 * the ones; more than half wins, fewer loses, and an exact half (even
 * n only) takes the first input's bit.
 */
RowData
referenceMajority(const std::vector<const RowData *> &inputs)
{
    const ColId cols = inputs.front()->bits();
    const std::size_t n = inputs.size();
    RowData out(cols);
    for (ColId col = 0; col < cols; ++col) {
        std::size_t ones = 0;
        for (const RowData *in : inputs)
            ones += in->get(col);
        bool bit;
        if (2 * ones > n)
            bit = true;
        else if (2 * ones < n)
            bit = false;
        else
            bit = inputs.front()->get(col);
        out.set(col, bit);
    }
    return out;
}

/** Every bit past `bits` in the last word is zero. */
bool
tailIsZero(const RowData &d)
{
    const ColId rem = d.bits() % 64;
    return rem == 0 || (d.words().back() >> rem) == 0;
}

class MajorityKernel : public ::testing::TestWithParam<ColId>
{};

TEST_P(MajorityKernel, MatchesBitAtATimeReferenceForEveryN)
{
    const ColId cols = GetParam();
    pud::Rng rng(0x3A7 + cols);
    // Skewed densities reach the extreme counts (0 and n) that fair
    // coins never hit at large n.
    const double kDensities[] = {0.5, 0.5, 0.05, 0.95};
    for (std::size_t n = 2; n <= 32; ++n) {
        for (const double density : kDensities) {
            std::vector<RowData> rows(n, RowData(cols));
            for (RowData &r : rows)
                for (ColId c = 0; c < cols; ++c)
                    r.set(c, rng.chance(density));
            std::vector<const RowData *> inputs;
            for (const RowData &r : rows)
                inputs.push_back(&r);

            RowData out(cols);
            out.assignMajority(inputs);
            EXPECT_EQ(out, referenceMajority(inputs))
                << "n=" << n << " density=" << density;
            EXPECT_TRUE(tailIsZero(out)) << "n=" << n;
        }
    }
}

TEST_P(MajorityKernel, ForcedTiesResolveToTheFirstInput)
{
    const ColId cols = GetParam();
    pud::Rng rng(0x71E + cols);
    for (std::size_t n = 2; n <= 32; n += 2) {
        // Every column holds exactly n/2 ones, in a random arrangement.
        std::vector<RowData> rows(n, RowData(cols));
        for (ColId c = 0; c < cols; ++c) {
            std::vector<char> column(n, 0);
            std::fill(column.begin(), column.begin() + n / 2, 1);
            for (std::size_t i = n - 1; i > 0; --i)
                std::swap(column[i], column[rng.below(i + 1)]);
            for (std::size_t i = 0; i < n; ++i)
                rows[i].set(c, column[i] != 0);
        }
        std::vector<const RowData *> inputs;
        for (const RowData &r : rows)
            inputs.push_back(&r);

        RowData out(cols);
        out.assignMajority(inputs);
        EXPECT_EQ(out, rows.front()) << "n=" << n;
        EXPECT_EQ(out, referenceMajority(inputs)) << "n=" << n;
        EXPECT_TRUE(tailIsZero(out)) << "n=" << n;

        // In place into the tie-breaking input, as the device merges.
        rows.front().assignMajority(inputs);
        EXPECT_EQ(rows.front(), out) << "n=" << n;
    }
}

TEST_P(MajorityKernel, OutputMayBeAnInputAndRepeatsAreVotes)
{
    const ColId cols = GetParam();
    pud::Rng rng(0x5EED + cols);
    std::vector<RowData> rows(3, RowData(cols));
    for (RowData &r : rows)
        for (ColId c = 0; c < cols; ++c)
            r.set(c, rng.chance(0.5));
    // Weights (3, 1, 1): the first row outvotes the other two.
    const std::vector<const RowData *> weighted = {
        &rows[0], &rows[0], &rows[0], &rows[1], &rows[2]};
    const RowData expect = rows[0];
    rows[1].assignMajority(weighted);
    EXPECT_EQ(rows[1], expect);
}

INSTANTIATE_TEST_SUITE_P(Widths, MajorityKernel,
                         ::testing::Values(64u, 256u, 1000u, 1024u));

class PatternSweep : public ::testing::TestWithParam<DataPattern>
{};

TEST_P(PatternSweep, FillMatchesByteDefinition)
{
    const DataPattern p = GetParam();
    const auto byte = static_cast<std::uint8_t>(p);
    RowData d(512, p);
    for (ColId c = 0; c < 512; ++c)
        EXPECT_EQ(d.get(c), ((byte >> (c % 8)) & 1) != 0) << "col " << c;
}

TEST_P(PatternSweep, DoubleNegationIsIdentity)
{
    EXPECT_EQ(negate(negate(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternSweep,
                         ::testing::ValuesIn(kAllPatterns));

} // namespace
