/**
 * @file
 * The weak-cell model: per-cell read-disturbance thresholds and
 * accumulated damage.
 *
 * Each simulated DRAM row carries a handful of disturbance-prone weak
 * cells.  The weakest cell under the active conditions defines the
 * row's HC_first; the rest let bitflip *counts* keep growing past
 * HC_first, which the TRR experiment (paper Fig. 24) relies on.
 *
 * Damage accrues linearly: one aggressor activation event adds
 * 1 / HC_effective(cell | conditions); the cell's bit reads flipped
 * once accumulated damage reaches 1.  Linear accrual is what makes the
 * paper's combined RowHammer + CoMRA + SiMRA patterns (§6) compose.
 */

#ifndef PUD_DRAM_CELL_H
#define PUD_DRAM_CELL_H

#include <array>
#include <vector>

#include "dram/datapattern.h"
#include "dram/types.h"
#include "util/units.h"

namespace pud::dram {

/** One disturbance-prone cell within a row. */
struct WeakCell
{
    /** Bit position within the row. */
    ColId col = 0;

    /**
     * Double-sided RowHammer HC_first of this cell at the reference
     * conditions (80C, worst-case data pattern, nominal t_AggOn).
     */
    float baseHc = 1e9f;

    /** Damage gain when the activation is part of a CoMRA copy cycle. */
    float comraFactor = 1.0f;

    /** Damage gain for SiMRA, per N in {2, 4, 8, 16, 32}. */
    std::array<float, 5> simraFactor{1, 1, 1, 1, 1};

    /**
     * Fractional damage change per +30C for conventional hammering;
     * drawn with random sign per cell because the paper finds no clear
     * population-level RowHammer temperature trend.
     */
    float tempSlopeConv = 0.0f;

    /** Flip direction for conventional / CoMRA class disturbance. */
    FlipDirection dirConv = FlipDirection::ZeroToOne;

    /** Flip direction for SiMRA-class disturbance (Obs. 14: 1 -> 0). */
    FlipDirection dirSimra = FlipDirection::OneToZero;

    /**
     * Share of the distance-1 coupling felt from the upper neighbour
     * (the lower neighbour gets the complement); mean 0.5 preserves
     * the double-sided calibration.
     */
    float upperShare = 0.5f;

    /**
     * Small per-cell asymmetry between the two halves of a CoMRA copy
     * cycle (the destination is the quick-reopened wordline); this is
     * what makes reversing the copy direction matter (paper Obs. 9).
     */
    float dstRoleGain = 1.0f;

    /**
     * Trial-to-trial threshold variation: redrawn on every host write
     * (the start of a fresh trial).  Real DRAM cells show run-to-run
     * HC_first variation, which is why the paper repeats every
     * HC_first search five times and reports the minimum.
     */
    float trialScale = 1.0f;

    /**
     * Accumulated fractional damage per technique class (indexed by
     * TechClass).  Different disturbance mechanisms charge partially
     * disjoint trap populations, so cross-technique damage transfers
     * only a calibrated fraction (paper §6: pre-hammering with CoMRA
     * to 90% of its HC_first cuts the subsequent RowHammer
     * requirement by only 1.34x, not 10x).  The bit reads flipped
     * once any class's accumulator reaches 1.
     */
    std::array<float, 3> damage{0.0f, 0.0f, 0.0f};

    /** Sum across classes (reporting/testing only). */
    float
    totalDamage() const
    {
        return damage[0] + damage[1] + damage[2];
    }

    /** True once any accumulator crossed the flip threshold. */
    bool
    flipped() const
    {
        return damage[0] >= 1.0f || damage[1] >= 1.0f ||
               damage[2] >= 1.0f;
    }

    /** Clear all accumulators (charge restoration). */
    void
    resetDamage()
    {
        damage = {0.0f, 0.0f, 0.0f};
    }

    /** The charge state this cell flips away from, for a class. */
    bool
    fromBit(TechClass cls) const
    {
        const FlipDirection d =
            cls == TechClass::Simra ? dirSimra : dirConv;
        return d == FlipDirection::OneToZero;
    }
};

/** log2(N) - 1 index into per-N SiMRA tables for N in {2,4,8,16,32}. */
inline int
simraIndex(int n)
{
    switch (n) {
      case 2:  return 0;
      case 4:  return 1;
      case 8:  return 2;
      case 16: return 3;
      case 32: return 4;
    }
    return 0;
}

/** One DRAM row: stored data, weak cells, and alternation state. */
struct Row
{
    RowData data;
    std::vector<WeakCell> cells;

    /** When this row last closed; -1 before its first activation. */
    Time lastCloseAt = -1;

    /**
     * Where the run log being filled holds this row's image, if the
     * image there is this row's (Device::logRow checks).  The two
     * indices below work the same way for a loop recording; a stale
     * one, left by an earlier fill or recording, names another row's
     * entry or none and is ignored.
     */
    std::uint32_t logImage = 0;
    /** The row's place on its bank's tracked rows of the recording
     *  (Device::noteLoopTouched). */
    std::uint32_t trackedAt = 0;
    /** Its first cell's entry in the recording's DamageFold. */
    std::uint32_t foldAt = 0;

    /**
     * True once the row's data and weak-cell population have been
     * drawn (Device::populateRow).  Rows start as unpopulated shells
     * and materialize on first touch: the per-row threshold stream is
     * counter-based (keyed by seed, bank, row), so a lazily-built row
     * is bit-identical to the same row in an eagerly-built device.
     * Cannot be inferred from cells.empty(): weakCellsPerRow may be 0
     * (the differential checker runs flip-free devices).
     */
    bool populated = false;

    /**
     * True once the cells' CoMRA/SiMRA factors are drawn too.  A row
     * only hammered conventionally never needs them, so they are
     * drawn on first use (Device::rowWithFactors); until then they
     * hold WeakCell's defaults.
     */
    bool factorsDrawn = false;

    /** On the device's list of rows whose close stamp a loop replay
     *  may have to shift (Device::stampedRows_). */
    bool stampListed = false;

    /**
     * Which side (-1 left, +1 right, 0 none) last disturbed this row,
     * for the double-sided synergy model: alternating or simultaneous
     * two-sided aggression couples at full strength; persistent
     * one-sided aggression is scaled down.
     */
    std::int8_t lastSide = 0;
};

} // namespace pud::dram

#endif // PUD_DRAM_CELL_H
