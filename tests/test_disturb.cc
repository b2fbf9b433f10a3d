/**
 * @file
 * Unit tests for the disturbance model's condition factors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "dram/disturb.h"
#include "util/rng.h"

namespace {

using namespace pud;
using namespace pud::dram;

DeviceConfig
hynixConfig()
{
    return makeConfig("HMA81GU7AFR8N-UH", 1);
}

DeviceConfig
micronConfig()
{
    return makeConfig("MTA18ASF4G72HZ-3G2F1", 1);
}

TEST(PressGain, ConventionalAnchors)
{
    const DisturbanceModel m(hynixConfig());
    EXPECT_NEAR(m.pressGain(TechClass::Conventional, 1,
                            units::fromNs(36)),
                1.0, 1e-9);
    EXPECT_NEAR(m.pressGain(TechClass::Conventional, 1,
                            units::fromNs(144)),
                1.878, 1e-3);
    // Obs. 6: 31.15x average HC_first reduction at t_AggOn = 70.2us.
    EXPECT_NEAR(m.pressGain(TechClass::Conventional, 1,
                            units::fromNs(70200)),
                31.15, 1e-2);
}

TEST(PressGain, MonotonicInTAggOn)
{
    const DisturbanceModel m(hynixConfig());
    double prev = 0.0;
    for (double t : {36., 50., 144., 1000., 7800., 30000., 70200.}) {
        const double g =
            m.pressGain(TechClass::Comra, 1, units::fromNs(t));
        EXPECT_GT(g, prev) << "t=" << t;
        prev = g;
    }
}

TEST(PressGain, PartialOpenAttenuates)
{
    const DisturbanceModel m(hynixConfig());
    EXPECT_LT(m.pressGain(TechClass::Conventional, 1, units::fromNs(3)),
              0.1);
    EXPECT_NEAR(m.pressGain(TechClass::Conventional, 1, 0), 0.0, 1e-12);
}

TEST(PressGain, SimraEndFactorsWithinPaperRange)
{
    // Obs. 18: 144.93x - 270.27x at 70.2us across all N.
    const DisturbanceModel m(hynixConfig());
    for (int n : {2, 4, 8, 16, 32}) {
        const double g =
            m.pressGain(TechClass::Simra, n, units::fromNs(70200));
        EXPECT_GE(g, 144.0) << "N=" << n;
        EXPECT_LE(g, 271.0) << "N=" << n;
    }
}

TEST(ComraDelayGain, NominalAtSevenPointFive)
{
    const DisturbanceModel m(hynixConfig());
    EXPECT_DOUBLE_EQ(m.comraDelayGain(units::fromNs(7.5)), 1.0);
    EXPECT_DOUBLE_EQ(m.comraDelayGain(units::fromNs(3.0)), 1.0);
}

TEST(ComraDelayGain, PaperEndpoints)
{
    // Obs. 8: HC_first increases 3.10x (SK Hynix) / 1.18x (Micron)
    // from 7.5ns to 12ns.
    const DisturbanceModel hynix(hynixConfig());
    EXPECT_NEAR(1.0 / hynix.comraDelayGain(units::fromNs(12.0)), 3.10,
                1e-2);
    const DisturbanceModel micron(micronConfig());
    EXPECT_NEAR(1.0 / micron.comraDelayGain(units::fromNs(12.0)), 1.18,
                1e-2);
}

TEST(OffGain, MemoKeyClampPreservesTheGain)
{
    // The close memo keys a close's reopen gap by offGapKey(): the key
    // may only merge gaps offGain() cannot tell apart.
    using DM = DisturbanceModel;
    constexpr Time kMax = std::numeric_limits<Time>::max();
    const Time sat = DM::offGapKey(kMax);
    // offGain() caps at 1.05, about 63.5 ns * 1.05^4.
    EXPECT_NEAR(units::toNs(sat), 63.5 * std::pow(1.05, 4), 1e-3);
    EXPECT_EQ(DM::offGain(sat), 1.05);
    EXPECT_LT(DM::offGain(sat - 1), DM::offGain(sat));  // a tight clamp

    const Time gaps[] = {std::numeric_limits<Time>::min(),
                         -units::fromNs(101000),
                         -1,
                         0,
                         1,
                         units::fromNs(15),
                         units::fromNs(63.5),
                         sat - 1,
                         sat,
                         sat + 1,
                         2 * sat,
                         units::fromNs(70200),
                         kMax / 2,
                         kMax};
    for (const Time g : gaps) {
        const Time key = DM::offGapKey(g);
        EXPECT_EQ(DM::offGain(g), DM::offGain(key)) << "gap " << g;
        EXPECT_EQ(key, std::clamp<Time>(g, 0, sat)) << "gap " << g;
    }
}

TEST(SimraTimingGain, PartialActivationPenalty)
{
    const DisturbanceModel m(hynixConfig());
    const double nominal = m.simraTimingGain(units::fromNs(3.0),
                                             units::fromNs(3.0));
    const double partial = m.simraTimingGain(units::fromNs(1.5),
                                             units::fromNs(3.0));
    // Obs. 20: 2.28x average HC_first increase.
    EXPECT_NEAR(nominal / partial, 2.28, 1e-2);
}

TEST(SimraTimingGain, PreToActTrend)
{
    const DisturbanceModel m(hynixConfig());
    const double lo = m.simraTimingGain(units::fromNs(3.0),
                                        units::fromNs(1.5));
    const double hi = m.simraTimingGain(units::fromNs(3.0),
                                        units::fromNs(4.5));
    // Obs. 19: 1.23x decrease in HC_first from 1.5ns to 4.5ns.
    EXPECT_NEAR(hi / lo, 1.23, 1e-2);
}

TEST(TempGain, ComraFamilyTrends)
{
    const DisturbanceModel hynix(hynixConfig());
    const DisturbanceModel micron(micronConfig());
    WeakCell cell;
    // SK Hynix: hotter is worse (3.45x from 50C to 80C).
    const double h50 = hynix.tempGain(TechClass::Comra, 1, 50.0, cell);
    const double h80 = hynix.tempGain(TechClass::Comra, 1, 80.0, cell);
    EXPECT_NEAR(h80 / h50, 3.45, 1e-2);
    // Micron: inverted (1.14x the other way, Obs. 4).
    const double m50 = micron.tempGain(TechClass::Comra, 1, 50.0, cell);
    const double m80 = micron.tempGain(TechClass::Comra, 1, 80.0, cell);
    EXPECT_NEAR(m50 / m80, 1.14, 1e-2);
}

TEST(TempGain, SimraConsistentIncrease)
{
    const DisturbanceModel m(hynixConfig());
    WeakCell cell;
    for (int n : {2, 4, 8, 16}) {
        const double g50 = m.tempGain(TechClass::Simra, n, 50.0, cell);
        const double g80 = m.tempGain(TechClass::Simra, n, 80.0, cell);
        EXPECT_GT(g80 / g50, 2.9) << "N=" << n;  // Obs. 15: ~3.0-3.3x
        EXPECT_LT(g80 / g50, 3.4) << "N=" << n;
    }
}

TEST(TempGain, ConventionalFollowsCellSlope)
{
    const DisturbanceModel m(hynixConfig());
    WeakCell hot, cold;
    hot.tempSlopeConv = 0.5f;
    cold.tempSlopeConv = -0.3f;
    EXPECT_LT(m.tempGain(TechClass::Conventional, 1, 50.0, hot), 1.0);
    EXPECT_GT(m.tempGain(TechClass::Conventional, 1, 50.0, cold), 1.0);
    EXPECT_DOUBLE_EQ(m.tempGain(TechClass::Conventional, 1, 80.0, hot),
                     1.0);
}

TEST(DataGain, AntiParallelAndCheckerboardStrongest)
{
    const DisturbanceModel m(hynixConfig());
    const RowData checker(64, DataPattern::P55);
    const RowData solid(64, DataPattern::PFF);
    // Victim bit 0 stored under an aggressor 1 with local alternation:
    // full coupling.
    EXPECT_DOUBLE_EQ(m.dataGain(checker, 0, false), 1.0);
    // Same-value coupling is weaker.
    EXPECT_LT(m.dataGain(checker, 0, true), 1.0);
    // Solid pattern loses the alternation bonus.
    EXPECT_LT(m.dataGain(solid, 0, false), 1.0);
}

TEST(DataGain, NanyaSolidPatternsIneffective)
{
    const DisturbanceModel m(makeConfig("KVR24N17S8/8", 1));
    const RowData solid(64, DataPattern::P00);
    const RowData checker(64, DataPattern::PAA);
    // Footnote 1: no bitflips within a refresh window for 0x00/0xFF.
    EXPECT_LT(m.dataGain(solid, 0, true), 0.05);
    EXPECT_GT(m.dataGain(checker, 1, false), 0.5);
}

TEST(Region, PartitionIsUniform)
{
    const DisturbanceModel m(hynixConfig());
    const RowId rps = hynixConfig().rowsPerSubarray;
    int counts[kNumRegions] = {};
    for (RowId r = 0; r < rps; ++r)
        ++counts[static_cast<int>(m.regionOf(r))];
    // rps need not divide evenly by 5; regions differ by at most 1.
    for (int c : counts) {
        EXPECT_GE(c, static_cast<int>(rps) / kNumRegions);
        EXPECT_LE(c, static_cast<int>(rps) / kNumRegions + 1);
    }
    // Second subarray partitions identically.
    EXPECT_EQ(m.regionOf(rps), Region::Beginning);
    EXPECT_EQ(m.regionOf(2 * rps - 1), Region::End);
}

TEST(RegionGain, ComraVariationMatchesManufacturer)
{
    // Fig. 11: max/min average HC_first variation 1.40x for SK Hynix,
    // 2.25x for Micron.
    auto ratio = [](const DeviceConfig &cfg) {
        const DisturbanceModel m(cfg);
        double lo = 1e9, hi = 0;
        for (int r = 0; r < kNumRegions; ++r) {
            const double g = m.regionGain(TechClass::Comra, 1,
                                          static_cast<Region>(r));
            lo = std::min(lo, g);
            hi = std::max(hi, g);
        }
        return hi / lo;
    };
    EXPECT_NEAR(ratio(hynixConfig()), 1.40, 0.02);
    EXPECT_NEAR(ratio(micronConfig()), 2.25, 0.02);
}

TEST(RegionGain, ConventionalSharesTheFamilyProfile)
{
    // The spatial vulnerability profile is a property of the silicon,
    // shared between single-row activation and CoMRA, so the CoMRA-
    // vs-RowHammer comparison is region-neutral (keeps Obs. 2 true).
    const DisturbanceModel m(hynixConfig());
    for (int r = 0; r < kNumRegions; ++r)
        EXPECT_DOUBLE_EQ(m.regionGain(TechClass::Conventional, 1,
                                      static_cast<Region>(r)),
                         m.regionGain(TechClass::Comra, 1,
                                      static_cast<Region>(r)));
}

TEST(ApplyClose, DoubleSidedNormalization)
{
    // An alternating double-sided RowHammer at reference conditions
    // must flip the weakest cell after ~baseHc rounds: feed synthetic
    // close events directly and verify the damage arithmetic.
    DeviceConfig cfg = hynixConfig();
    DisturbanceModel m(cfg);

    std::vector<Row> rows(8);
    for (auto &row : rows)
        row.data = RowData(cfg.cols, DataPattern::PAA);

    WeakCell cell;
    cell.col = 0;  // 0xAA has bit 0 = 0: matches dirConv 0 -> 1
    cell.baseHc = 1000.0f;
    cell.dirConv = FlipDirection::ZeroToOne;
    rows[3].cells.push_back(cell);

    CloseEvent left, right;
    left.rows = {2};
    right.rows = {4};
    left.cls = right.cls = TechClass::Conventional;
    left.tOn = right.tOn = units::fromNs(36);

    // Aggressors hold 0x55 (bit 0 = 1, anti-parallel, alternating).
    rows[2].data = RowData(cfg.cols, DataPattern::P55);
    rows[4].data = RowData(cfg.cols, DataPattern::P55);

    // The family's spatial profile scales the per-event damage; fold
    // it into the expected round count.
    const double gain =
        m.regionGain(TechClass::Conventional, 1, m.regionOf(3));
    const int rounds = static_cast<int>(1000.0 / gain);
    for (int round = 0; round < rounds - 2; ++round) {
        m.applyClose(rows, left, 80.0, 1);
        m.applyClose(rows, right, 80.0, 1);
    }
    EXPECT_FALSE(rows[3].cells[0].flipped());
    // A few more rounds push it over 1.0 (the very first event is
    // reduced-strength before alternation establishes).
    for (int round = 0; round < 4; ++round) {
        m.applyClose(rows, left, 80.0, 1);
        m.applyClose(rows, right, 80.0, 1);
    }
    EXPECT_TRUE(rows[3].cells[0].flipped());
}

TEST(ApplyClose, SubarrayBoundaryIsolates)
{
    DeviceConfig cfg = hynixConfig();
    DisturbanceModel m(cfg);
    const RowId rps = cfg.rowsPerSubarray;

    std::vector<Row> rows(2 * rps);
    for (auto &row : rows)
        row.data = RowData(cfg.cols, DataPattern::PAA);

    WeakCell cell;
    cell.col = 0;
    cell.baseHc = 10.0f;
    cell.dirConv = FlipDirection::ZeroToOne;
    // Victim on the far side of the boundary from the aggressor.
    rows[rps].cells.push_back(cell);

    CloseEvent ev;
    ev.rows = {rps - 1};  // last row of subarray 0
    ev.cls = TechClass::Conventional;
    ev.tOn = units::fromNs(36);
    for (int i = 0; i < 1000; ++i)
        m.applyClose(rows, ev, 80.0, 1);
    EXPECT_FLOAT_EQ(rows[rps].cells[0].totalDamage(), 0.0f);
}

TEST(ApplyClose, RecordingReplaysExactly)
{
    DeviceConfig cfg = hynixConfig();
    DisturbanceModel m(cfg);

    std::vector<Row> rows(8);
    for (auto &row : rows)
        row.data = RowData(cfg.cols, DataPattern::PAA);
    WeakCell cell;
    cell.col = 2;  // 0xAA bit 2 = 0
    cell.baseHc = 100000.0f;
    rows[3].cells.push_back(cell);
    rows[2].data = RowData(cfg.cols, DataPattern::P55);

    CloseEvent ev;
    ev.rows = {2};
    ev.cls = TechClass::Conventional;
    ev.tOn = units::fromNs(36);

    m.applyClose(rows, ev, 80.0, 1);  // warm-up (side state)
    const float after_one = rows[3].cells[0].damage[0];

    m.beginRecording();
    m.applyClose(rows, ev, 80.0, 1);
    DamageRecord record;
    m.endRecording(record);
    const float per_iter = rows[3].cells[0].damage[0] - after_one;

    DisturbanceModel::replay(record, 10);
    EXPECT_NEAR(rows[3].cells[0].damage[0], after_one + 11 * per_iter,
                1e-3 * per_iter);
}

/**
 * The hash-map fold DisturbanceModel::replay used before DamageFold:
 * per-cell per-class sums in event order, zeroed and latched by a
 * reset.  The reference DamageFold must match bit for bit.
 */
struct MapFold
{
    struct Net
    {
        float delta[3] = {0, 0, 0};
        bool reset = false;
    };
    std::unordered_map<WeakCell *, Net> net;

    void add(WeakCell *cell, int cls, float delta)
    {
        net[cell].delta[cls] += delta;
    }

    void
    reset(WeakCell *cell)
    {
        Net &n = net[cell];
        n.delta[0] = n.delta[1] = n.delta[2] = 0.0f;
        n.reset = true;
    }
};

TEST(DamageFold, MatchesHashMapFoldBitForBit)
{
    // 1200 recordings over 300 rows of 0-8 cells: most touch a few
    // rows (stale row indices from earlier recordings, in range and
    // not), every 50th touches every row.  The fold holds every cell
    // of a touched row, rows in first-touch order; each cell's sums
    // must match the reference bit for bit, and a cell the reference
    // never saw must hold nothing.
    std::vector<Row> rows(300);
    Rng rng(42);
    for (Row &row : rows)
        row.cells.resize(rng.below(9));
    DamageFold fold;
    std::size_t events = 0, resets = 0, max_cells = 0;
    for (int round = 0; round < 1200; ++round) {
        fold.clear();
        MapFold ref;
        std::vector<Row *> order;  // reference first-touch order
        const bool wide = round % 50 == 0;
        const std::size_t span = wide ? rows.size() : 12;
        const std::size_t lo = wide ? 0 : rng.below(rows.size() - span);
        const int n = wide ? 4000 : static_cast<int>(rng.below(40));
        for (int e = 0; e < n; ++e) {
            Row &row = rows[lo + rng.below(span)];
            const bool reset = row.cells.empty() || rng.chance(0.05);
            if (!row.cells.empty() &&
                std::find(order.begin(), order.end(), &row) == order.end())
                order.push_back(&row);
            if (reset) {
                fold.reset(row);
                for (WeakCell &cell : row.cells)
                    ref.reset(&cell);
                ++resets;
            } else {
                WeakCell &cell = row.cells[rng.below(row.cells.size())];
                const int cls = static_cast<int>(rng.below(3));
                const auto delta =
                    static_cast<float>(rng.uniform(1e-7, 1e-3));
                fold.add(row, cell, static_cast<TechClass>(cls), delta);
                ref.add(&cell, cls, delta);
            }
            ++events;
        }

        const DamageRecord &net = fold.net();
        std::size_t at = 0;
        for (Row *row : order) {
            for (WeakCell &cell : row->cells) {
                ASSERT_LT(at, net.size()) << "round " << round;
                const DamageDelta &got = net[at++];
                ASSERT_EQ(got.cell, &cell) << "round " << round;
                const auto it = ref.net.find(&cell);
                const MapFold::Net want =
                    it != ref.net.end() ? it->second : MapFold::Net{};
                EXPECT_EQ(std::memcmp(got.delta, want.delta,
                                      sizeof want.delta),
                          0)
                    << "round " << round << " entry " << at - 1;
                EXPECT_EQ(got.reset, want.reset);
            }
        }
        EXPECT_EQ(at, net.size()) << "round " << round;
        max_cells = std::max(max_cells, net.size());
    }
    EXPECT_GE(events, 10000u);
    EXPECT_GT(resets, 500u);
    EXPECT_GE(max_cells, 1000u);

    // take() hands the entries over and leaves the fold empty.
    fold.clear();
    Row row;
    row.cells.resize(2);
    fold.add(row, row.cells[1], TechClass::Simra, 0.5f);
    DamageRecord out(3);
    fold.take(out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].cell, &row.cells[1]);
    EXPECT_EQ(out[1].delta[2], 0.5f);
    EXPECT_EQ(out[0].delta[2], 0.0f);
    EXPECT_TRUE(fold.net().empty());
}

TEST(CellIndex, GenerationWrapForgetsStaleSlots)
{
    // Cells 0..99 are indexed once every 255 clears -- exactly when the
    // 8-bit generation comes back to the same stamp -- and left alone
    // in between, so only the wrap sweep keeps their old slots from
    // reading as live.
    std::vector<WeakCell> cells(200);
    CellIndex index;
    for (int round = 0; round < 520; ++round) {
        index.clear();
        const bool wide = round % 255 == 0;
        const std::size_t lo = wide ? 0 : 150;
        const std::size_t n = wide ? 100 : 10;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(index(cells[lo + i]), i) << "round " << round;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(index(cells[lo + i]), i) << "round " << round;
        ASSERT_EQ(index.size(), n) << "round " << round;
    }
}

TEST(FoldThreshold, AnchorBudgetHitsRegionGain)
{
    const DeviceConfig cfg = hynixConfig();
    const DisturbanceModel m(cfg);
    const double base = cfg.profile.rhMin;

    AggregateExposure e;
    e.cls = TechClass::Conventional;
    e.tOn = cfg.timings.tRAS;
    e.doubleSided = true;
    e.region = Region::Middle;
    e.temperature = 80.0;
    // Exactly the double-sided HC_first budget: 2 * base closes split
    // across both aggressors.  At the anchor conditions (tRAS on-time,
    // 80C) every gain except the spatial one is 1.0, so the fold must
    // return precisely the family's Middle-region factor.
    e.weightedCloses = 2.0 * base;
    const double d = foldThreshold(cfg, e, base);
    EXPECT_NEAR(
        d, m.regionGain(TechClass::Conventional, 2, Region::Middle),
        1e-9);

    // Linear in the close total.
    e.weightedCloses *= 3.0;
    EXPECT_NEAR(foldThreshold(cfg, e, base), 3.0 * d, 1e-9);
}

TEST(FoldThreshold, SideAndDelayFactors)
{
    const DeviceConfig cfg = hynixConfig();
    const double base = cfg.profile.rhMin;

    AggregateExposure e;
    e.cls = TechClass::Conventional;
    e.tOn = cfg.timings.tRAS;
    e.weightedCloses = 2.0 * base;
    const double both = foldThreshold(cfg, e, base);
    e.doubleSided = false;
    EXPECT_NEAR(foldThreshold(cfg, e, base),
                both * cfg.singleSidedScale, 1e-9);
    e.doubleSided = true;

    // CoMRA damage decays as the violated PRE -> ACT delay grows
    // toward nominal tRP (Fig. 9).
    e.cls = TechClass::Comra;
    e.comraDelay = units::fromNs(7.5);
    const double fast = foldThreshold(cfg, e, base);
    e.comraDelay = units::fromNs(12.0);
    const double slow = foldThreshold(cfg, e, base);
    EXPECT_GT(fast, slow);
    EXPECT_GT(slow, 0.0);
}

TEST(FoldThreshold, DegenerateInputsAreZero)
{
    const DeviceConfig cfg = hynixConfig();
    AggregateExposure e;
    e.weightedCloses = 1000.0;
    EXPECT_EQ(foldThreshold(cfg, e, 0.0), 0.0);
    e.weightedCloses = 0.0;
    EXPECT_EQ(foldThreshold(cfg, e, 25000.0), 0.0);
}

} // namespace
