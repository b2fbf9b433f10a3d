/**
 * @file
 * Unit tests for the per-bank protocol kernel: reopen classification
 * against the CoMRA/SiMRA windows, the state each transition leaves,
 * and the timing window reported when geometry disqualifies it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/config.h"
#include "dram/protocol.h"

namespace {

using namespace pud;
using namespace pud::dram;

DeviceConfig
smallConfig(bool simra = true)
{
    DeviceConfig cfg = makeConfig(simra ? "HMA81GU7AFR8N-UH"
                                        : "KVR21S15S8/4");
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    return cfg;
}

const TimingParams kT{};
constexpr Time kStart = 100 * units::ns;

/** ACT prev, PRE after t_on, ACT next after gap: the second step. */
BankProtocol::Step
reopen(BankProtocol &bank, const DeviceConfig &cfg, RowId prev,
       RowId next, Time t_on, Time gap)
{
    bank.act(cfg, kStart, prev);
    EXPECT_TRUE(bank.pre(kStart + t_on));
    return bank.act(cfg, kStart + t_on + gap, next);
}

Transition
classify(const DeviceConfig &cfg, RowId prev, RowId next, Time t_on,
         Time gap)
{
    BankProtocol bank;
    return reopen(bank, cfg, prev, next, t_on, gap).transition;
}

TEST(BankProtocol, ClassifyReopenComraWindow)
{
    const DeviceConfig cfg = smallConfig();
    // Full tRAS restore, reopen inside the CoMRA window, same
    // subarray, different row: a copy.
    EXPECT_EQ(classify(cfg, 10, 12, kT.tRAS, units::fromNs(7.5)),
              Transition::ComraCopy);
    // Same row: no copy, plain reopen.
    EXPECT_EQ(classify(cfg, 10, 10, kT.tRAS, units::fromNs(7.5)),
              Transition::Conventional);
    // Cross-subarray: the bitline charge cannot cross.
    EXPECT_EQ(classify(cfg, 10, 70, kT.tRAS, units::fromNs(7.5)),
              Transition::Conventional);
    // Gap beyond the window: conventional.
    EXPECT_EQ(classify(cfg, 10, 12, kT.tRAS,
                       kT.comraMaxPreToAct + units::ns),
              Transition::Conventional);
    // Short restore disqualifies CoMRA (and is not SiMRA-grade).
    EXPECT_EQ(classify(cfg, 10, 12, kT.tRAS / 2, units::fromNs(7.5)),
              Transition::Conventional);
}

TEST(BankProtocol, ClassifyReopenSimraWindow)
{
    const DeviceConfig cfg = smallConfig();
    const Time t_on = units::fromNs(3);
    const Time gap = units::fromNs(3);
    EXPECT_EQ(classify(cfg, 8, 15, t_on, gap), Transition::SimraGroup);
    // Unsupported chip: the violating commands are ignored.
    EXPECT_EQ(classify(smallConfig(false), 8, 15, t_on, gap),
              Transition::SimraIgnored);
    // Same row twice: degenerate single-wordline set, falls back
    // to conventional (not CoMRA either -- same row).
    EXPECT_EQ(classify(cfg, 8, 8, t_on, gap), Transition::Conventional);
    // Cross-subarray: no group forms.
    EXPECT_EQ(classify(cfg, 8, 70, t_on, gap), Transition::Conventional);
}

TEST(BankProtocol, SimraGroupOpensTheActivatedSet)
{
    const DeviceConfig cfg = smallConfig();
    BankProtocol bank;
    const auto s = reopen(bank, cfg, 8, 15, units::fromNs(3),
                          units::fromNs(3));  // hd 3 -> 8 rows
    ASSERT_EQ(s.transition, Transition::SimraGroup);
    EXPECT_FALSE(s.closed);  // the quick PRE is part of the op
    EXPECT_EQ(s.tOn, units::fromNs(3));
    EXPECT_EQ(s.gap, units::fromNs(3));
    ASSERT_EQ(bank.openRows.size(), 8u);
    for (RowId r = 8; r < 16; ++r)
        EXPECT_EQ(bank.openRows[r - 8], r);
    EXPECT_EQ(bank.openKind, OpenKind::Simra);
    EXPECT_EQ(bank.openedAt, kStart + units::fromNs(6));
}

TEST(BankProtocol, ComraCopyNamesSourceAndDestination)
{
    const DeviceConfig cfg = smallConfig();
    BankProtocol bank;
    const auto s =
        reopen(bank, cfg, 10, 12, kT.tRAS, units::fromNs(7.5));
    ASSERT_EQ(s.transition, Transition::ComraCopy);
    EXPECT_TRUE(s.closed);  // the source close is the copy's first half
    EXPECT_EQ(s.window, PudWindow::Comra);
    EXPECT_EQ(s.src, 10u);
    EXPECT_EQ(s.dst, 12u);
    EXPECT_EQ(s.gap, units::fromNs(7.5));
    EXPECT_EQ(bank.openRows, std::vector<RowId>{12});
    EXPECT_EQ(bank.openKind, OpenKind::ComraDst);
    // The resolved close stays readable until the next PRE.
    EXPECT_FALSE(bank.pending.valid);
    EXPECT_EQ(bank.pending.rows, std::vector<RowId>{10});
    EXPECT_EQ(bank.pending.tOn, kT.tRAS);
}

TEST(BankProtocol, SimraIgnoredKeepsTheFirstRowOpen)
{
    const DeviceConfig cfg = smallConfig(false);
    BankProtocol bank;
    const auto s = reopen(bank, cfg, 32, 38, units::fromNs(3),
                          units::fromNs(3));
    ASSERT_EQ(s.transition, Transition::SimraIgnored);
    EXPECT_FALSE(s.closed);
    EXPECT_EQ(bank.openRows, std::vector<RowId>{32});
    EXPECT_EQ(bank.openKind, OpenKind::Normal);
    EXPECT_EQ(bank.openedAt, kStart);  // its original activation time
    EXPECT_FALSE(bank.pending.valid);

    // The row then closes after a full restore and copies to 38.
    const Time pre_at = kStart + units::fromNs(6) + kT.tRAS;
    ASSERT_TRUE(bank.pre(pre_at));
    const auto copy = bank.act(cfg, pre_at + units::fromNs(7.5), 38);
    EXPECT_EQ(copy.transition, Transition::ComraCopy);
    EXPECT_EQ(copy.src, 32u);
}

TEST(BankProtocol, MultiRowPendingNeverReclassifies)
{
    const DeviceConfig cfg = smallConfig();
    BankProtocol bank;
    ASSERT_EQ(reopen(bank, cfg, 32, 38, units::fromNs(3),
                     units::fromNs(3))
                  .transition,
              Transition::SimraGroup);
    const Time pre_at = kStart + units::fromNs(6) + kT.tRAS;
    ASSERT_TRUE(bank.pre(pre_at));
    EXPECT_EQ(bank.pending.rows.size(), 4u);
    EXPECT_EQ(bank.pending.kind, OpenKind::Simra);
    const auto s = bank.act(cfg, pre_at + units::fromNs(7.5), 34);
    EXPECT_EQ(s.transition, Transition::Conventional);
    EXPECT_EQ(s.window, PudWindow::Comra);  // timing alone would copy
    EXPECT_TRUE(s.closed);
    EXPECT_EQ(bank.openRows, std::vector<RowId>{34});
}

TEST(BankProtocol, WindowIsReportedAcrossSubarrays)
{
    const DeviceConfig cfg = smallConfig();
    BankProtocol simra;
    const auto s1 = reopen(simra, cfg, 8, 70, units::fromNs(3),
                           units::fromNs(3));
    EXPECT_EQ(s1.transition, Transition::Conventional);
    EXPECT_EQ(s1.window, PudWindow::Simra);

    BankProtocol comra;
    const auto s2 =
        reopen(comra, cfg, 10, 70, kT.tRAS, units::fromNs(7.5));
    EXPECT_EQ(s2.transition, Transition::Conventional);
    EXPECT_EQ(s2.window, PudWindow::Comra);

    BankProtocol nominal;
    const auto s3 = reopen(nominal, cfg, 10, 12, kT.tRAS, kT.tRP);
    EXPECT_EQ(s3.window, PudWindow::None);
}

TEST(BankProtocol, PreAndDropPending)
{
    const DeviceConfig cfg = smallConfig();
    BankProtocol bank;
    EXPECT_FALSE(bank.pre(kStart));  // nothing open: no-op
    EXPECT_FALSE(bank.dropPending());

    const auto first = bank.act(cfg, kStart, 5);
    EXPECT_FALSE(first.closed);  // nothing was pending
    EXPECT_TRUE(bank.isOpen());
    ASSERT_TRUE(bank.pre(kStart + kT.tRAS));
    EXPECT_FALSE(bank.isOpen());
    EXPECT_TRUE(bank.pending.valid);
    EXPECT_EQ(bank.pending.closedAt, kStart + kT.tRAS);
    EXPECT_EQ(bank.pending.openedAt, kStart);
    EXPECT_TRUE(bank.dropPending());
    EXPECT_FALSE(bank.dropPending());

    // A dropped close no longer classifies the next ACT.
    const auto s = bank.act(cfg, kStart + kT.tRAS + units::fromNs(7.5), 6);
    EXPECT_EQ(s.transition, Transition::Conventional);
    EXPECT_FALSE(s.closed);
}

} // namespace
