/**
 * @file
 * Unit tests for the command-level DRAM device model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "dram/device.h"
#include "mitigation/countermeasures.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace pud;
using namespace pud::dram;

DeviceConfig
smallConfig(const std::string &family = "HMA81GU7AFR8N-UH",
            std::uint64_t seed = 1)
{
    DeviceConfig cfg = makeConfig(family, seed);
    cfg.banks = 2;
    cfg.subarraysPerBank = 4;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    return cfg;
}

/** Issue commands with an auto-advancing cursor. */
struct Cmd
{
    explicit Cmd(Device &dev) : dev(&dev), t(dev.now() + units::fromNs(10))
    {}

    Cmd &
    act(BankId b, RowId r, Time gap = units::fromNs(15))
    {
        t += gap;
        dev->act(t, b, r);
        return *this;
    }

    Cmd &
    pre(BankId b, Time gap = units::fromNs(36))
    {
        t += gap;
        dev->pre(t, b);
        return *this;
    }

    Cmd &
    wr(BankId b, const RowData &d, Time gap = units::fromNs(15))
    {
        t += gap;
        dev->wr(t, b, d);
        return *this;
    }

    RowData
    rd(BankId b, Time gap = units::fromNs(15))
    {
        t += gap;
        return dev->rd(t, b);
    }

    Device *dev;
    Time t;
};

TEST(Device, WriteReadRoundTrip)
{
    Device dev(smallConfig());
    const RowData data(256, DataPattern::PAA);
    dev.writeRowDirect(0, 17, data);
    EXPECT_EQ(dev.readRowDirect(0, 17), data);
}

TEST(Device, ActWrRdThroughCommands)
{
    Device dev(smallConfig());
    const RowData data(256, DataPattern::P55);
    Cmd c(dev);
    c.act(0, 9).wr(0, data);
    EXPECT_EQ(c.rd(0), data);
    c.pre(0);
    EXPECT_EQ(dev.readRowDirect(0, 9), data);
}

TEST(Device, TimeMustNotGoBackwards)
{
    Device dev(smallConfig());
    dev.act(1000, 0, 1);
    EXPECT_DEATH(dev.act(999, 0, 2), "backwards");
}

TEST(Device, ActOnOpenBankIsFatal)
{
    Device dev(smallConfig());
    dev.act(units::fromNs(100), 0, 1);
    EXPECT_DEATH(dev.act(units::fromNs(200), 0, 2), "open");
}

TEST(Device, RdWithoutOpenRowIsFatal)
{
    Device dev(smallConfig());
    EXPECT_DEATH(dev.rd(units::fromNs(50), 0), "no open row");
}

TEST(Device, ComraCopiesSourceToDestination)
{
    Device dev(smallConfig());
    const RowData src_data(256, DataPattern::PAA);
    const RowData dst_data(256, DataPattern::P00);
    dev.writeRowDirect(0, 10, src_data);
    dev.writeRowDirect(0, 12, dst_data);

    Cmd c(dev);
    c.act(0, 10)
        .pre(0, units::fromNs(36))              // full restore
        .act(0, 12, units::fromNs(7.5))         // violated tRP
        .pre(0, units::fromNs(36));
    dev.flush();

    EXPECT_EQ(dev.readRowDirect(0, 12), src_data);
    EXPECT_EQ(dev.counters().comraCopies, 1u);
}

TEST(Device, NominalTrpDoesNotCopy)
{
    Device dev(smallConfig());
    const RowData src_data(256, DataPattern::PAA);
    const RowData dst_data(256, DataPattern::P00);
    dev.writeRowDirect(0, 10, src_data);
    dev.writeRowDirect(0, 12, dst_data);

    Cmd c(dev);
    c.act(0, 10).pre(0, units::fromNs(36)).act(0, 12, units::fromNs(15))
        .pre(0, units::fromNs(36));
    dev.flush();

    EXPECT_EQ(dev.readRowDirect(0, 12), dst_data);
    EXPECT_EQ(dev.counters().comraCopies, 0u);
}

TEST(Device, ComraAcrossSubarraysDoesNotCopy)
{
    DeviceConfig cfg = smallConfig();
    Device dev(cfg);
    const RowData src_data(256, DataPattern::PAA);
    const RowData dst_data(256, DataPattern::P00);
    const RowId dst = cfg.rowsPerSubarray + 2;  // next subarray
    dev.writeRowDirect(0, 10, src_data);
    dev.writeRowDirect(0, dst, dst_data);

    Cmd c(dev);
    c.act(0, 10).pre(0, units::fromNs(36))
        .act(0, dst, units::fromNs(7.5)).pre(0, units::fromNs(36));
    dev.flush();

    EXPECT_EQ(dev.readRowDirect(0, dst), dst_data);
}

TEST(Device, SimraOpensBitCombinationGroup)
{
    Device dev(smallConfig());  // SK Hynix: supports SiMRA
    // Physical rows 16..19 via offsets differing in bits 1..2; the
    // XorFold mapping is an involution, so drive logical addresses
    // that map to the intended physical rows.
    const RowId phys1 = 16, phys2 = 22;  // mask 0b110 -> 4 rows
    const RowId log1 = dev.toLogical(phys1);
    const RowId log2 = dev.toLogical(phys2);

    const RowData marker(256, DataPattern::PFF);
    const RowData canvas(256, DataPattern::P00);
    for (RowId p = 16; p < 24; ++p)
        dev.writeRowDirect(0, dev.toLogical(p), canvas);

    Cmd c(dev);
    c.act(0, log1)
        .pre(0, units::fromNs(3))
        .act(0, log2, units::fromNs(3))
        .wr(0, marker, units::fromNs(15))
        .pre(0, units::fromNs(36));
    dev.flush();

    EXPECT_EQ(dev.counters().simraOps, 1u);
    for (RowId p : {16u, 18u, 20u, 22u})
        EXPECT_EQ(dev.readRowDirect(0, dev.toLogical(p)), marker)
            << "row " << p;
    for (RowId p : {17u, 19u, 21u, 23u})
        EXPECT_EQ(dev.readRowDirect(0, dev.toLogical(p)), canvas)
            << "row " << p;
}

TEST(Device, SimraMajorityMergesData)
{
    Device dev(smallConfig());
    const RowId phys1 = 32, phys2 = 34;  // pair {32, 34}
    // 0xFF and 0xFF majority against nothing else: use three..; for a
    // 2-row tie the lower-indexed row's bit wins.
    dev.writeRowDirect(0, dev.toLogical(phys1),
                       RowData(256, DataPattern::PFF));
    dev.writeRowDirect(0, dev.toLogical(phys2),
                       RowData(256, DataPattern::P00));

    Cmd c(dev);
    c.act(0, dev.toLogical(phys1))
        .pre(0, units::fromNs(3))
        .act(0, dev.toLogical(phys2), units::fromNs(3))
        .pre(0, units::fromNs(36));
    dev.flush();

    // Tie resolved toward the lower row: both now hold 0xFF.
    const RowData expect(256, DataPattern::PFF);
    EXPECT_EQ(dev.readRowDirect(0, dev.toLogical(phys1)), expect);
    EXPECT_EQ(dev.readRowDirect(0, dev.toLogical(phys2)), expect);
}

TEST(Device, NonSimraChipIgnoresViolatingSequence)
{
    Device dev(smallConfig("MTA18ASF4G72HZ-3G2F1"));  // Micron
    EXPECT_FALSE(dev.supportsSimra());
    const RowData canvas(256, DataPattern::P00);
    const RowData marker(256, DataPattern::PFF);
    for (RowId r = 16; r < 24; ++r)
        dev.writeRowDirect(0, r, canvas);

    Cmd c(dev);
    c.act(0, 16)
        .pre(0, units::fromNs(3))
        .act(0, 22, units::fromNs(3))
        .wr(0, marker, units::fromNs(15))
        .pre(0, units::fromNs(36));
    dev.flush();

    EXPECT_EQ(dev.counters().simraOps, 0u);
    EXPECT_GE(dev.counters().ignoredCommands, 2u);
    // Only the first (still open) row received the write.
    EXPECT_EQ(dev.readRowDirect(0, 16), marker);
    EXPECT_EQ(dev.readRowDirect(0, 22), canvas);
}

TEST(Device, RefWithOpenBankIsFatal)
{
    Device dev(smallConfig());
    dev.act(units::fromNs(100), 0, 1);
    EXPECT_DEATH(dev.ref(units::fromNs(200)), "open bank");
}

TEST(Device, RefreshCoversAllRowsOncePerWindow)
{
    DeviceConfig cfg = smallConfig();
    Device dev(cfg);
    // Damage a cell artificially via hammering is slow; instead verify
    // the stripe arithmetic: after refsPerWindow REFs every row must
    // have been refreshed exactly once.  We detect refresh through
    // flip materialization: flipped cells toggle stored data.
    // Simpler structural check: issuing refsPerWindow REFs is legal
    // and the counters add up.
    Time t = units::fromNs(100);
    for (int i = 0; i < cfg.timings.refsPerWindow; ++i) {
        t += units::fromNs(100);
        dev.ref(t);
    }
    EXPECT_EQ(dev.counters().refs,
              static_cast<std::uint64_t>(cfg.timings.refsPerWindow));
}

TEST(Device, ResetTrrSamplerClearsHistory)
{
    Device dev(smallConfig());
    Cmd c(dev);
    c.act(0, 1).pre(0).act(0, 2).pre(0).act(0, 3).pre(0);
    dev.flush();
    // The sampler records every ACT, whether or not TRR is enabled.
    EXPECT_EQ(dev.trrSamplerFill(0), 3u);

    dev.resetTrrSampler();
    EXPECT_EQ(dev.trrSamplerFill(0), 0u);

    // With an empty sampler there is no aggressor to act on: REF must
    // not issue TRR victim refreshes even with the mechanism enabled.
    dev.setTrrEnabled(true);
    dev.ref(dev.now() + units::fromNs(100));
    EXPECT_EQ(dev.counters().trrRefreshes, 0u);
}

TEST(Device, WrWrongWidthIsFatal)
{
    Device dev(smallConfig());
    dev.act(units::fromNs(100), 0, 1);
    EXPECT_DEATH(dev.wr(units::fromNs(200), 0, RowData(64)), "bits");
}

TEST(Device, CountersTrackCommands)
{
    Device dev(smallConfig());
    Cmd c(dev);
    c.act(0, 1).pre(0).act(0, 2).pre(0);
    dev.flush();
    EXPECT_EQ(dev.counters().acts, 2u);
    EXPECT_EQ(dev.counters().pres, 2u);
}

TEST(Device, GeometryValidation)
{
    DeviceConfig cfg = smallConfig();
    cfg.rowsPerSubarray = 48;  // not a power of two
    EXPECT_DEATH(
        {
            Device dev(cfg);
            (void)dev;
        },
        "power of two");
}

TEST(Device, TrialNoiseRedrawnOnHostWrites)
{
    DeviceConfig cfg = smallConfig();
    cfg.trialNoiseSigma = 0.2;
    Device dev(cfg);
    const RowData d(256, DataPattern::PAA);
    dev.writeRowDirect(0, 5, d);
    const float first = dev.weakCells(0, 5).front().trialScale;
    dev.writeRowDirect(0, 5, d);
    const float second = dev.weakCells(0, 5).front().trialScale;
    EXPECT_NE(first, second);
    EXPECT_GT(first, 0.3f);
    EXPECT_LT(first, 3.0f);
}

TEST(Device, ZeroTrialNoiseStaysDeterministic)
{
    Device dev(smallConfig());
    const RowData d(256, DataPattern::PAA);
    dev.writeRowDirect(0, 5, d);
    EXPECT_FLOAT_EQ(dev.weakCells(0, 5).front().trialScale, 1.0f);
}

TEST(Device, IdenticalSimraGroupKeepsDataAndCounts)
{
    // Re-merging a group whose rows already agree must leave exactly
    // what a full merge would: the rows' data, and one more simraOps.
    Device dev(smallConfig());
    const RowId phys1 = 16, phys2 = 22;  // group {16, 18, 20, 22}
    const RowData data(256, DataPattern::PAA);
    for (RowId p : {16u, 18u, 20u, 22u})
        dev.writeRowDirect(0, dev.toLogical(p), data);

    Cmd c(dev);
    for (int i = 0; i < 3; ++i) {
        c.act(0, dev.toLogical(phys1))
            .pre(0, units::fromNs(3))
            .act(0, dev.toLogical(phys2), units::fromNs(3))
            .pre(0, units::fromNs(36));
    }
    dev.flush();
    EXPECT_EQ(dev.counters().simraOps, 3u);
    for (RowId p : {16u, 18u, 20u, 22u})
        EXPECT_EQ(dev.readRowDirect(0, dev.toLogical(p)), data)
            << "row " << p;
}

TEST(Device, DifferingSimraGroupStillMerges)
{
    Device dev(smallConfig());
    const RowId phys1 = 16, phys2 = 22;  // group {16, 18, 20, 22}
    const std::array<RowData, 4> in = {
        RowData(256, DataPattern::P00), RowData(256, DataPattern::PFF),
        RowData(256, DataPattern::PFF), RowData(256, DataPattern::PAA)};
    const std::array<RowId, 4> group = {16, 18, 20, 22};
    for (std::size_t i = 0; i < group.size(); ++i)
        dev.writeRowDirect(0, dev.toLogical(group[i]), in[i]);
    RowData expect(256);
    const std::array<const RowData *, 4> inputs = {&in[0], &in[1],
                                                   &in[2], &in[3]};
    expect.assignMajority(inputs);
    ASSERT_NE(expect, in[0]);  // the merge must change something

    Cmd c(dev);
    c.act(0, dev.toLogical(phys1))
        .pre(0, units::fromNs(3))
        .act(0, dev.toLogical(phys2), units::fromNs(3))
        .pre(0, units::fromNs(36));
    dev.flush();
    EXPECT_EQ(dev.counters().simraOps, 1u);
    for (RowId p : group)
        EXPECT_EQ(dev.readRowDirect(0, dev.toLogical(p)), expect)
            << "row " << p;
}

// ---------------------------------------------------------------------------
// Close memo: a memoized device against one that recomputes every close
// ---------------------------------------------------------------------------

/**
 * Drives two devices built from one config through the same live
 * program.  `b` forgets its memoized closes before every command, so
 * each of its closes recomputes its deposits; `a` keeps its memo.
 */
struct MemoTwin
{
    explicit MemoTwin(const DeviceConfig &cfg)
        : a(cfg), b(cfg), paraA(paraConfig(), cfg.rowsPerSubarray),
          paraB(paraConfig(), cfg.rowsPerSubarray)
    {}

    static mitigation::ParaConfig
    paraConfig()
    {
        mitigation::ParaConfig p;
        p.probability = 1.0 / 32;
        p.seed = 0x5eed;
        return p;
    }

    template <typename F>
    void
    both(F f)
    {
        f(a);
        b.invalidateCloses();
        f(b);
    }

    void
    act(RowId phys, Time gap)
    {
        t += gap;
        both([&](Device &d) { d.act(t, bank, d.toLogical(phys)); });
    }

    void
    pre(Time gap)
    {
        t += gap;
        both([&](Device &d) { d.pre(t, bank); });
    }

    Device a, b;
    mitigation::ParaMitigation paraA, paraB;
    BankId bank = 0;
    Time t = units::fromNs(100);
};

/** Whether two values agree bit for bit (floats included). */
template <typename T>
bool
sameBits(const T &x, const T &y)
{
    return std::memcmp(&x, &y, sizeof x) == 0;
}

// A new WeakCell field must join sameCell() below.
static_assert(sizeof(WeakCell) == 64);

/** Whether two weak cells agree in every field, bit for bit. */
bool
sameCell(const WeakCell &x, const WeakCell &y)
{
    return x.col == y.col && sameBits(x.baseHc, y.baseHc) &&
           sameBits(x.comraFactor, y.comraFactor) &&
           sameBits(x.simraFactor, y.simraFactor) &&
           sameBits(x.tempSlopeConv, y.tempSlopeConv) &&
           x.dirConv == y.dirConv && x.dirSimra == y.dirSimra &&
           sameBits(x.upperShare, y.upperShare) &&
           sameBits(x.dstRoleGain, y.dstRoleGain) &&
           sameBits(x.trialScale, y.trialScale) &&
           sameBits(x.damage, y.damage);
}

/** Whether a (logical) row's data, weak cells and side state agree
 *  bit for bit (materializes the row in both devices). */
bool
sameRow(Device &a, Device &b, BankId bank, RowId logical)
{
    if (a.readRowDirect(bank, logical) != b.readRowDirect(bank, logical) ||
        a.lastSide(bank, logical) != b.lastSide(bank, logical) ||
        a.lastCloseAt(bank, logical) != b.lastCloseAt(bank, logical))
        return false;
    const std::vector<WeakCell> &wa = a.weakCells(bank, logical);
    const std::vector<WeakCell> &wb = b.weakCells(bank, logical);
    return std::equal(wa.begin(), wa.end(), wb.begin(), wb.end(), sameCell);
}

void
expectSameCounters(const Device &a, const Device &b)
{
    const DeviceCounters &ca = a.counters(), &cb = b.counters();
    EXPECT_EQ(ca.acts, cb.acts);
    EXPECT_EQ(ca.pres, cb.pres);
    EXPECT_EQ(ca.refs, cb.refs);
    EXPECT_EQ(ca.comraCopies, cb.comraCopies);
    EXPECT_EQ(ca.simraOps, cb.simraOps);
    EXPECT_EQ(ca.ignoredCommands, cb.ignoredCommands);
    EXPECT_EQ(ca.trrRefreshes, cb.trrRefreshes);
}

/** Full comparison: flush, then every row of both devices. */
void
expectSameState(Device &a, Device &b)
{
    a.flush();
    b.flush();
    ASSERT_EQ(a.populatedRowCount(), b.populatedRowCount());
    expectSameCounters(a, b);
    a.materializeAllRows();
    b.materializeAllRows();
    const DeviceConfig &cfg = a.config();
    for (BankId bank = 0; bank < cfg.banks; ++bank) {
        EXPECT_EQ(a.trrSamplerRows(bank), b.trrSamplerRows(bank));
        for (RowId r = 0; r < cfg.rowsPerBank(); ++r)
            if (!sameRow(a, b, bank, r))
                ADD_FAILURE() << "bank " << bank << " row " << r
                              << " differs";
    }
}

/**
 * One seeded live program.  Bursts of RH (one- or two-sided), CoMRA
 * (near or far destination) and SiMRA-2/4/8/16 hammering on a small
 * pool of victims, so the same closes recur across bursts, some long
 * enough to flip cells.  Every few iterations an event lands in the
 * burst: a WR, a CoMRA copy into the victim, a SiMRA group over it, an
 * ACT that restores its flips, REFs, a close of a third aggressor (a
 * side change), a host write or a temperature change.  Half the
 * bursts start like an HC_first probe: host writes of the victim's and
 * its aggressors' fixed data, which rewrite identical data once the
 * victim was probed before.  Between bursts the device may be reset to
 * a new module.  TRR is on for odd seeds and a PARA hook is attached
 * for every third; thresholds are scaled down 100x so flips come
 * quickly.  Returns the closes issued.
 */
std::uint64_t
runMemoProgram(std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", seed);
    cfg.banks = 2;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    cfg.trialNoiseSigma = seed % 4 == 1 ? 0.1 : 0.0;
    for (double *anchor : {&cfg.profile.rhMin, &cfg.profile.rhAvg,
                           &cfg.profile.comraMin, &cfg.profile.comraAvg,
                           &cfg.profile.simraMin, &cfg.profile.simraAvg})
        *anchor /= 100;
    MemoTwin tw(cfg);
    auto arm = [&] {
        tw.both([&](Device &d) { d.setTrrEnabled(seed % 2 == 1); });
        if (seed % 3 == 0) {
            tw.a.setMitigation(&tw.paraA);
            tw.b.setMitigation(&tw.paraB);
        }
    };
    arm();

    Rng rng = Rng(seed).fork(0x3e30);
    const RowId rps = cfg.rowsPerSubarray;
    const DataPattern patterns[] = {DataPattern::P00, DataPattern::PFF,
                                    DataPattern::PAA, DataPattern::P55};
    auto pattern = [&] { return RowData(cfg.cols, patterns[rng.below(4)]); };
    const Time tRas = units::fromNs(36), tRp = units::fromNs(15);

    // Physical victims, each at least 4 rows inside its subarray.
    std::array<RowId, 3> pool{};
    for (RowId &v : pool)
        v = static_cast<RowId>(rng.below(cfg.subarraysPerBank)) * rps + 4 +
            static_cast<RowId>(rng.below(rps - 8));
    // Each victim's probe data: its own, and its aggressors'.
    std::array<RowData, pool.size()> victim_data, aggr_data;
    for (std::size_t k = 0; k < pool.size(); ++k) {
        victim_data[k] = pattern();
        aggr_data[k] = pattern();
    }

    std::uint64_t closes = 0;
    auto close_pair = [&](RowId r, Time on) {
        tw.act(r, tRp);
        tw.pre(on);
        ++closes;
    };
    // One SiMRA group open over rows r1 .. r1 | mask.
    auto simra = [&](RowId r1, RowId mask, Time on) {
        tw.act(r1, tRp);
        tw.pre(on);
        tw.act(r1 ^ mask, units::fromNs(3));
        tw.pre(tRas);
        ++closes;
    };

    for (int burst = 0; burst < 16; ++burst) {
        tw.bank = static_cast<BankId>(rng.below(cfg.banks));
        const std::size_t vk = rng.below(pool.size());
        const RowId v = pool[vk];
        if (rng.chance(0.5)) {
            tw.both([&](Device &d) {
                d.writeRowDirect(tw.bank, d.toLogical(v - 1), aggr_data[vk]);
                d.writeRowDirect(tw.bank, d.toLogical(v), victim_data[vk]);
                d.writeRowDirect(tw.bank, d.toLogical(v + 1), aggr_data[vk]);
            });
        }
        // A long burst hammers past the flip threshold undisturbed, then
        // restores the victim's flips and hammers on.
        const bool long_burst = rng.chance(0.3);
        const auto reps = static_cast<int>(
            long_burst ? 400 + rng.below(600) : 40 + rng.below(200));
        const auto period = static_cast<int>(8 + rng.below(40));
        const int kind = static_cast<int>(rng.below(4));
        const int sides = static_cast<int>(rng.below(3));
        const Time on = rng.chance(0.25) ? units::fromNs(400) : tRas;
        const RowId far = rng.chance(0.5) ? 2 : 9;
        const int bits = 1 + static_cast<int>(rng.below(4));
        const RowId mask = (RowId{1} << bits) - 1;
        const RowId group = v & ~mask;

        for (int i = 0; i < reps; ++i) {
            switch (kind) {
              case 0:
              case 1:  // RowHammer, one- or two-sided, sometimes pressed
                if (sides != 2)
                    close_pair(v - 1, on);
                if (sides != 1)
                    close_pair(v + 1, on);
                break;
              case 2: {  // CoMRA copy cycles, src below the victim
                const RowId src = v - 1;
                const RowId dst = v / rps * rps + (src % rps + far) % rps;
                close_pair(src, tRas);
                tw.act(dst, units::fromNs(7.5));
                tw.pre(tRas);
                ++closes;
                break;
              }
              case 3:  // SiMRA-N over the group holding v's neighbour
                simra((v + 1) & ~mask, mask, units::fromNs(3));
                break;
            }
            if (long_burst) {
                if (i == reps * 3 / 4)
                    close_pair(v, tRas);
                continue;
            }
            if (i % period != period - 1)
                continue;

            const RowId target = v - 2 + static_cast<RowId>(rng.below(5));
            switch (rng.below(10)) {
              case 0: {  // WR through the open row
                const RowData data = pattern();
                tw.act(target, tRp);
                tw.t += units::fromNs(15);
                tw.both([&](Device &d) { d.wr(tw.t, tw.bank, data); });
                tw.pre(tRas);
                break;
              }
              case 1:  // a CoMRA copy into the victim
                close_pair(v - 3, tRas);
                tw.act(v, units::fromNs(7.5));
                tw.pre(tRas);
                break;
              case 2:  // a SiMRA group over the victim (merges its data)
                simra(group, mask, rng.chance(0.3) ? units::fromNs(1.5)
                                                   : units::fromNs(3));
                break;
              case 3:
              case 9:  // restore the victim's flips
                close_pair(v, tRas);
                break;
              case 4:
                for (int k = 0; k < 1 + static_cast<int>(rng.below(4));
                     ++k) {
                    tw.t += units::fromNs(7800);
                    tw.both([&](Device &d) { d.ref(tw.t); });
                }
                tw.t += units::fromNs(350);
                break;
              case 5:  // a third aggressor: the victim's side changes
                close_pair(v + 2, tRas);
                break;
              case 6: {
                const RowData data = pattern();
                tw.both([&](Device &d) {
                    d.writeRowDirect(tw.bank, d.toLogical(target), data);
                });
                break;
              }
              case 7: {
                const Celsius temp = 50.0 + 10.0 * rng.below(5);
                tw.both([&](Device &d) { d.setTemperature(temp); });
                break;
              }
              case 8:
                break;
            }
        }

        for (RowId r = v - 3; r <= v + 3; ++r) {
            const RowId logical = tw.a.toLogical(r);
            if (!sameRow(tw.a, tw.b, tw.bank, logical)) {
                ADD_FAILURE() << "burst " << burst << ": bank " << tw.bank
                              << " row " << r << " differs";
                return closes;
            }
        }
        expectSameCounters(tw.a, tw.b);

        if (rng.chance(0.15)) {  // arena reuse: a new module
            const std::uint64_t module = seed + rng.below(2);
            tw.both([&](Device &d) { d.reset(module); });
            tw.t = units::fromNs(100);
            arm();
        }
    }
    expectSameState(tw.a, tw.b);
    return closes;
}

TEST(CloseMemo, MatchesRecomputeOnSeededLivePrograms)
{
    obs::metrics().setEnabled(true);
    auto hits = [] {
        for (const auto &c : obs::metrics().snapshot().counters)
            if (c.name == "device.close_memo_hits")
                return c.value;
        return std::uint64_t{0};
    };
    const std::uint64_t before = hits();
    std::uint64_t closes = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        closes += runMemoProgram(seed);
        if (::testing::Test::HasFailure())
            break;
    }
    const std::uint64_t memo_hits = hits() - before;
    obs::metrics().setEnabled(false);
    // The twin that recomputes never hits, so these are the memoized
    // device's: most of its repeated closes must come from the memo.
    EXPECT_GT(memo_hits, closes / 2);
}

// ---------------------------------------------------------------------------
// Lazy row materialization
// ---------------------------------------------------------------------------

TEST(DeviceLazy, IdleDevicePopulatesNoRows)
{
    Device dev(smallConfig());
    EXPECT_EQ(dev.populatedRowCount(), 0u);
}

/**
 * The fleet-scale contract: per-row streams are counter-based, so a
 * lazily materialized device is indistinguishable from an eagerly
 * materialized one -- for any access order.
 */
TEST(DeviceLazy, WeakCellsIdenticalToEagerInAnyAccessOrder)
{
    const DeviceConfig cfg = smallConfig();
    Device eager(cfg), lazy(cfg);
    eager.materializeAllRows();
    EXPECT_EQ(eager.populatedRowCount(),
              static_cast<std::size_t>(cfg.banks) * cfg.rowsPerBank());

    // Touch the lazy device backwards, interleaving banks, to make the
    // materialization order maximally different from the eager sweep.
    for (RowId r = cfg.rowsPerBank(); r-- > 0;) {
        for (BankId b = 0; b < cfg.banks; ++b) {
            // Odd rows materialize through a host read first, which
            // leaves their CoMRA/SiMRA factors for weakCells() to draw.
            if (r % 2 == 1) {
                EXPECT_EQ(eager.readRowDirect(b, r),
                          lazy.readRowDirect(b, r));
            }
            const auto &e = eager.weakCells(b, r);
            const auto &l = lazy.weakCells(b, r);
            ASSERT_EQ(e.size(), l.size()) << "bank " << b << " row " << r;
            for (std::size_t i = 0; i < e.size(); ++i)
                EXPECT_TRUE(sameCell(e[i], l[i]))
                    << "bank " << b << " row " << r << " cell " << i;
            EXPECT_EQ(eager.readRowDirect(b, r), lazy.readRowDirect(b, r));
        }
    }
    EXPECT_EQ(lazy.populatedRowCount(), eager.populatedRowCount());
}

/**
 * Rows that RowHammer closes materialize get no CoMRA/SiMRA factors;
 * the first CoMRA or SiMRA close over them draws those.  After RH
 * traffic, then CoMRA copy cycles over one victim and SiMRA-4/-8
 * groups that sandwich others, a lazy device must hold exactly what a
 * fully drawn one holds: data, every cell field (damage included),
 * side state and counters.  Thresholds are scaled down 100x, so cells
 * flip and restores toggle data along the way.
 */
TEST(DeviceLazy, FactorsDrawnAfterRowHammerMatchEager)
{
    DeviceConfig cfg = smallConfig();  // SK Hynix: SiMRA-capable
    for (double *anchor : {&cfg.profile.rhMin, &cfg.profile.rhAvg,
                           &cfg.profile.comraMin, &cfg.profile.comraAvg,
                           &cfg.profile.simraMin, &cfg.profile.simraAvg})
        *anchor /= 100;
    Device eager(cfg), lazy(cfg);
    eager.materializeAllRows();

    for (Device *dev : {&eager, &lazy}) {
        Cmd c(*dev);
        auto at = [dev](RowId phys) { return dev->toLogical(phys); };
        auto simra = [&](RowId r1, RowId r2) {
            c.act(0, at(r1))
                .pre(0, units::fromNs(3))
                .act(0, at(r2), units::fromNs(3))
                .pre(0);
        };
        for (int i = 0; i < 400; ++i) {  // double-sided RH on 22 and 34
            c.act(0, at(21)).pre(0).act(0, at(23)).pre(0);
            c.act(0, at(33)).pre(0).act(0, at(35)).pre(0);
        }
        for (int i = 0; i < 400; ++i)  // CoMRA copy cycles 21 -> 23
            c.act(0, at(21)).pre(0).act(0, at(23), units::fromNs(7.5)).pre(0);
        for (int i = 0; i < 400; ++i)
            simra(32, 38);  // SiMRA-4 over {32, 34, 36, 38}
        for (int i = 0; i < 400; ++i)
            simra(32, 46);  // SiMRA-8 over {32, 34, ..., 46}
        dev->flush();
    }
    EXPECT_LE(lazy.populatedRowCount(), 32u);
    EXPECT_EQ(lazy.counters().comraCopies, 400u);
    EXPECT_EQ(lazy.counters().simraOps, 800u);
    expectSameCounters(eager, lazy);
    for (RowId r = 0; r < cfg.rowsPerBank(); ++r)
        EXPECT_TRUE(sameRow(eager, lazy, 0, r)) << "row " << r;
}

/**
 * Command-level equivalence: after identical double-sided hammer
 * traffic, a lazy device holds exactly the same row contents as a
 * fully materialized one (the pre-close flush must materialize the
 * disturbance blast radius before damage is applied), while having
 * populated only the touched neighborhood -- the property that makes
 * 10^4-module fleets affordable.  Flip-level equivalence under a real
 * HC_first search is pinned in test_population.cc.
 */
TEST(DeviceLazy, HammerTrafficLeavesIdenticalRowsWithSublinearPopulation)
{
    const DeviceConfig cfg = smallConfig();
    Device eager(cfg), lazy(cfg);
    eager.materializeAllRows();

    // Double-sided pattern around physical row 10 (subarray interior).
    const RowId agg1 = eager.toLogical(9);
    const RowId agg2 = eager.toLogical(11);

    for (Device *dev : {&eager, &lazy}) {
        Cmd c(*dev);
        for (int i = 0; i < 60000; ++i)
            c.act(0, agg1).pre(0).act(0, agg2).pre(0);
        dev->flush();
    }

    // Hammering two rows must populate only them and their disturbance
    // neighborhood -- not the bank.
    EXPECT_LE(lazy.populatedRowCount(), 16u);

    for (RowId r = 0; r < cfg.rowsPerBank(); ++r)
        EXPECT_EQ(eager.readRowDirect(0, r), lazy.readRowDirect(0, r))
            << "row " << r;

    // Reading bank 0 above materialized it wholesale, but bank 1 was
    // never touched by command traffic and must still be empty.
    EXPECT_EQ(lazy.populatedRowCount(),
              static_cast<std::size_t>(cfg.rowsPerBank()));
}

class FamilyDeviceSweep
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(FamilyDeviceSweep, ConstructsAndRoundTrips)
{
    Device dev(smallConfig(GetParam(), 3));
    const RowData d(256, DataPattern::P55);
    dev.writeRowDirect(1, 33, d);
    EXPECT_EQ(dev.readRowDirect(1, 33), d);
    // Logical <-> physical translation is consistent.
    for (RowId r = 0; r < 64; ++r)
        EXPECT_EQ(dev.toLogical(dev.toPhysical(r)), r);
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyDeviceSweep,
                         ::testing::Values("HMA81GU7AFR8N-UH",
                                           "MTA18ASF4G72HZ-3G2F1",
                                           "M391A2G43BB2-CWE",
                                           "KVR24N17S8/8"));

} // namespace
