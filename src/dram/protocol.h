/**
 * @file
 * The per-bank ACT/PRE protocol kernel: the single definition of how
 * an ACT that follows a PRE resolves (paper §4.1, §5.1).
 *
 * The paper defines CoMRA and SiMRA only by timing windows on an ACT
 * that follows a PRE.  BankProtocol owns the bank state those windows
 * are judged against -- the open rows and the pending (PRE'd but not
 * yet classified) close -- and its act() step returns the resolved
 * transition.  The device, the linter, the abstract interpreter and
 * the dataflow pass each embed one per bank and react to the returned
 * step, so the static analyses walk exactly the state machine the
 * device executes.
 */

#ifndef PUD_DRAM_PROTOCOL_H
#define PUD_DRAM_PROTOCOL_H

#include <cstdint>
#include <vector>

#include "dram/config.h"
#include "dram/simra_decoder.h"
#include "dram/types.h"
#include "util/units.h"

namespace pud::dram {

/**
 * The PuD timing window the gaps of an ACT-after-PRE fall in, judged
 * on timing alone: geometry (subarray, row identity, a multi-row
 * pending close) may still disqualify it.
 */
enum class PudWindow : std::uint8_t
{
    None,
    /** t_AggOn <= simraMaxActToPre and PRE->ACT <= simraMaxPreToAct. */
    Simra,
    /** Full tRAS restore and PRE->ACT <= comraMaxPreToAct. */
    Comra,
};

/** How an ACT resolved against the bank's pending close. */
enum class Transition : std::uint8_t
{
    /** Plain open; a pending close resolves conventionally. */
    Conventional,

    /**
     * CoMRA window hit on a single pending row in the same subarray
     * as a different destination row: the destination latches the
     * source's bitline charge -- an in-DRAM copy.
     */
    ComraCopy,

    /**
     * SiMRA window hit on a single pending row in the same subarray,
     * and the decoder resolves a multi-row set: the group opens and
     * the quick PRE is part of the operation, not a close.
     */
    SimraGroup,

    /**
     * SiMRA window hit on a chip that ignores grossly violating
     * commands (paper §5.3 footnote): the quick PRE and this ACT have
     * no effect and the previous row (group) stays open.
     */
    SimraIgnored,
};

/** One bank's protocol state and its PRE/ACT transitions. */
struct BankProtocol
{
    /** A PRE'd row (group) whose class the next ACT decides. */
    struct PendingClose
    {
        bool valid = false;
        std::vector<RowId> rows;  //!< physical, sorted
        Time tOn = 0;             //!< ACT -> PRE on-time
        Time closedAt = 0;
        Time openedAt = 0;
        OpenKind kind = OpenKind::Normal;
    };

    /** What one ACT did to the bank. */
    struct Step
    {
        Transition transition = Transition::Conventional;

        /** Window the gaps hit, even when geometry disqualified it. */
        PudWindow window = PudWindow::None;

        /**
         * A pending close resolved as a real close (Conventional or
         * the CoMRA source half): the caller accounts for it.  Its
         * rows and times stay readable in `pending` until the next
         * PRE.
         */
        bool closed = false;

        Time tOn = 0;  //!< on-time of the pending close
        Time gap = 0;  //!< PRE -> ACT gap

        RowId src = kNoRow;  //!< ComraCopy: the pending (source) row
        RowId dst = kNoRow;  //!< ComraCopy: the ACT's (destination) row
    };

    /** Physical, sorted; > 1 for a SiMRA group; empty when closed. */
    std::vector<RowId> openRows;
    OpenKind openKind = OpenKind::Normal;
    Time openedAt = 0;
    PendingClose pending;

    bool isOpen() const { return !openRows.empty(); }

    /**
     * PRE at `t`: the open row (group) becomes the pending close.
     * Returns false (a no-op) when no row is open.  The bank never
     * holds a pending close while open, so none is overwritten.
     */
    bool
    pre(Time t)
    {
        if (!isOpen())
            return false;
        pending.valid = true;
        pending.rows.swap(openRows);  // no allocation on the hot path
        openRows.clear();
        pending.tOn = t - openedAt;
        pending.closedAt = t;
        pending.openedAt = openedAt;
        pending.kind = openKind;
        return true;
    }

    /**
     * ACT of physical row `phys` at `t`.  Classifies the pending
     * close, if any, against the CoMRA/SiMRA windows of `cfg` and
     * opens the resulting row set (for SimraGroup, `openRows` is the
     * decoder's activated set).  An ACT on an open bank (a protocol
     * error the device fatals on) simply reopens `phys`.
     */
    Step
    act(const DeviceConfig &cfg, Time t, RowId phys)
    {
        Step s;
        if (pending.valid) {
            pending.valid = false;
            s.tOn = pending.tOn;
            s.gap = t - pending.closedAt;
            const TimingParams &tp = cfg.timings;
            const bool simra_timing = s.tOn <= tp.simraMaxActToPre &&
                                      s.gap <= tp.simraMaxPreToAct;
            const bool comra_timing = s.tOn >= tp.tRAS - units::ns &&
                                      s.gap <= tp.comraMaxPreToAct;
            s.window = simra_timing   ? PudWindow::Simra
                       : comra_timing ? PudWindow::Comra
                                      : PudWindow::None;

            // A multi-row pending close (a SiMRA group) never
            // reclassifies.
            const RowId rps = cfg.rowsPerSubarray;
            const bool single = pending.rows.size() == 1;
            const RowId prev = pending.rows.front();
            const bool same_sub = single && prev / rps == phys / rps;

            if (simra_timing && same_sub) {
                if (!cfg.profile.supportsSimra) {
                    s.transition = Transition::SimraIgnored;
                    openRows.swap(pending.rows);
                    openKind = pending.kind;
                    openedAt = pending.openedAt;
                    return s;
                }
                SimraDecoder(rps).activatedSetInto(prev, phys, openRows);
                if (openRows.size() > 1) {
                    s.transition = Transition::SimraGroup;
                    openKind = OpenKind::Simra;
                    openedAt = t;
                    return s;
                }
                // Degenerate pair (the same row twice): a single
                // wordline, resolved by the rules below.
            }

            s.closed = true;
            if (comra_timing && same_sub && prev != phys) {
                s.transition = Transition::ComraCopy;
                s.src = prev;
                s.dst = phys;
                openRows.assign(1, phys);
                openKind = OpenKind::ComraDst;
                openedAt = t;
                return s;
            }
        }
        openRows.assign(1, phys);
        openKind = OpenKind::Normal;
        openedAt = t;
        return s;
    }

    /**
     * Resolve the pending close without a consuming ACT (REF, end of
     * program).  Returns whether one was pending; its rows and times
     * stay readable in `pending` until the next PRE.
     */
    bool
    dropPending()
    {
        const bool was = pending.valid;
        pending.valid = false;
        return was;
    }
};

} // namespace pud::dram

#endif // PUD_DRAM_PROTOCOL_H
