/**
 * @file
 * Row-decoder model for simultaneous multiple-row activation.
 *
 * Prior work (Yuksel et al., DSN'24; Olgun et al., QUAC-TRNG) shows
 * that issuing ACT R1 - PRE - ACT R2 with grossly violated timings
 * leaves multiple row-address latch stages driven, simultaneously
 * activating every row whose in-subarray address offset is a bitwise
 * combination of R1's and R2's offsets: 2^k rows for Hamming distance
 * k, giving the 2/4/8/16/32-row activations the paper uses.
 *
 * Matching the paper's footnote 3 (no sandwiched victim was found for
 * 32-row activation), the modeled decoder only resolves a Hamming
 * distance of 5 when bit 0 participates (a contiguous 32-row block);
 * any other unresolvable pair falls back to activating just the two
 * issued rows.
 */

#ifndef PUD_DRAM_SIMRA_DECODER_H
#define PUD_DRAM_SIMRA_DECODER_H

#include <algorithm>
#include <vector>

#include "dram/types.h"

namespace pud::dram {

/** Expand an ACT-PRE-ACT row pair into the simultaneously-activated set. */
class SimraDecoder
{
  public:
    explicit SimraDecoder(RowId rows_per_subarray)
        : rowsPerSubarray_(rows_per_subarray)
    {}

    /**
     * Compute the activated physical row set for issued physical rows
     * r1 and r2 (which must be in the same subarray).  The result is
     * sorted and always contains r1 and r2.
     */
    std::vector<RowId>
    activatedSet(RowId r1, RowId r2) const
    {
        std::vector<RowId> rows;
        activatedSetInto(r1, r2, rows);
        return rows;
    }

    /** activatedSet() into `out` (replacing its contents), without
     *  allocating once `out` has grown. */
    void
    activatedSetInto(RowId r1, RowId r2, std::vector<RowId> &out) const
    {
        out.clear();
        const RowId base = (r1 / rowsPerSubarray_) * rowsPerSubarray_;
        const RowId o1 = r1 - base;
        const RowId o2 = r2 - base;
        const RowId mask = o1 ^ o2;
        const int hd = __builtin_popcount(mask);

        if (hd == 0) {
            out.push_back(r1);
            return;
        }
        if (hd > 5 || (hd == 5 && !(mask & 1))) {
            // Decoder cannot resolve the combination: only the two
            // issued wordlines fire.
            out.push_back(std::min(r1, r2));
            out.push_back(std::max(r1, r2));
            return;
        }

        // Enumerate all bit combinations of the differing bits.  The
        // bits are ascending, so ascending combos give ascending rows.
        RowId bits[5];
        int nbits = 0;
        for (RowId m = mask; m != 0; m &= m - 1)
            bits[nbits++] = static_cast<RowId>(__builtin_ctz(m));

        const RowId common = o1 & ~mask;
        for (RowId combo = 0; combo < (RowId(1) << nbits); ++combo) {
            RowId offset = common;
            for (int i = 0; i < nbits; ++i)
                if (combo & (RowId(1) << i))
                    offset |= RowId(1) << bits[i];
            out.push_back(base + offset);
        }
    }

    RowId rowsPerSubarray() const { return rowsPerSubarray_; }

  private:
    RowId rowsPerSubarray_;
};

} // namespace pud::dram

#endif // PUD_DRAM_SIMRA_DECODER_H
