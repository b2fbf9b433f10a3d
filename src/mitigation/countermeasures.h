/**
 * @file
 * The three PuDHammer countermeasures sketched in paper §8.1.
 *
 *  1. Compute-region separation: SiMRA only inside a small compute
 *     region whose rows are refreshed round-robin every few SiMRA
 *     operations; CoMRA may have at most one operand outside.
 *  2. Weighted contribution of activation types (implemented in
 *     PracConfig::weighted, re-exported here for discoverability).
 *  3. Clustered multiple-row activation: a row decoder that only
 *     activates contiguous groups, making sandwiched (double-sided)
 *     SiMRA victims geometrically impossible.
 */

#ifndef PUD_MITIGATION_COUNTERMEASURES_H
#define PUD_MITIGATION_COUNTERMEASURES_H

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dram/device.h"
#include "dram/types.h"
#include "mitigation/mitsem.h"
#include "mitigation/prac.h"
#include "util/rng.h"

namespace pud::mitigation {

using dram::RowId;

/**
 * Countermeasure 1: compute-region separation with periodic
 * compute-row refresh.
 *
 * The subarray's first `computeRows` rows form the compute region.
 * Policy checks return whether an operation is admissible; the
 * refresh schedule spreads one compute-row refresh over every
 * `refreshEveryOps` SiMRA operations, bounding the damage any
 * compute-region row can accumulate between refreshes.
 */
class ComputeRegionPolicy
{
  public:
    ComputeRegionPolicy(RowId subarray_rows, RowId compute_rows,
                        int refresh_every_ops);

    bool inComputeRegion(RowId row_offset) const;

    /** SiMRA admissible only if every activated row is in-region. */
    bool allowsSimra(std::span<const RowId> row_offsets) const;

    /** CoMRA admissible if at most one operand is out-of-region. */
    bool allowsComra(RowId src_offset, RowId dst_offset) const;

    /**
     * Account one SiMRA operation; returns the compute-region row to
     * refresh now, or dram::kNoRow if this op carries no refresh.
     */
    RowId onSimraOp();

    /**
     * Worst-case SiMRA operations any compute-region row can endure
     * between its refreshes: computeRows * refreshEveryOps.
     */
    std::uint64_t maxOpsBetweenRefreshes() const;

    RowId computeRows() const { return computeRows_; }

  private:
    RowId subarrayRows_;
    RowId computeRows_;
    int refreshEveryOps_;
    int opsSinceRefresh_ = 0;
    RowId nextRefresh_ = 0;
};

/**
 * Countermeasure 3: clustered multiple-row activation.  Given the
 * first issued row and the requested group size, returns the
 * contiguous N-aligned block containing it -- the decoder constraint
 * that guarantees no unactivated row is sandwiched.
 */
std::vector<RowId> clusteredActivationSet(RowId row, int n,
                                          RowId rows_per_subarray);

/** True if any un-activated row lies between two activated rows. */
bool hasSandwichedVictim(std::span<const RowId> sorted_group);

/**
 * Append `row`'s +-1 same-subarray neighbors to *out -- the blast set
 * every close-driven mitigation refreshes when it singles out a row.
 */
void appendAdjacentRows(RowId row, RowId rows_per_subarray,
                        std::vector<RowId> &out);

/**
 * PRAC as an executable device hook: per-close weighted counters
 * (PracCounters via the mitsem per-close weights), with every alert
 * served immediately by RFMs until the back-off clears.  Each RFM
 * refreshes the drained row and its +-1 same-subarray neighbors.
 */
class PracMitigation : public dram::MitigationHook
{
  public:
    PracMitigation(const PracConfig &cfg, BankId banks,
                   RowId rows_per_bank, RowId rows_per_subarray);

    void onClose(BankId bank, const dram::CloseEvent &event,
                 std::vector<RowId> &refresh) override;

    const PracCounters &counters() const { return counters_; }
    std::uint64_t alerts() const { return alerts_; }
    std::uint64_t rfms() const { return rfms_; }

  private:
    PracCounters counters_;
    RowId rowsPerSubarray_;
    std::uint64_t alerts_ = 0;
    std::uint64_t rfms_ = 0;
};

/**
 * PARA (Kim et al., ISCA'14) as a device hook: on every close, each
 * closed row's +-1 same-subarray neighbors are refreshed with
 * probability `cfg.probability`, with no state beyond the RNG.
 */
class ParaMitigation : public dram::MitigationHook
{
  public:
    ParaMitigation(const ParaConfig &cfg, RowId rows_per_subarray);

    void onClose(BankId bank, const dram::CloseEvent &event,
                 std::vector<RowId> &refresh) override;

    bool previews() const override { return true; }

    /** Draws each logged close's coins; keeps them only if none
     *  fires. */
    bool preview(std::span<const dram::LoggedClose> closes) override;

    std::uint64_t fires() const { return fires_; }

    /** Test-only: the coin stream. */
    const Rng &rng() const { return rng_; }

  private:
    ParaConfig cfg_;
    RowId rowsPerSubarray_;
    Rng rng_;
    std::uint64_t fires_ = 0;
};

/**
 * Graphene (Park et al., MICRO'20) as a device hook: a per-bank
 * Misra-Gries table over the close stream (+1 per closed row per
 * close event).  When a tracked row's estimate reaches the threshold
 * its +-1 same-subarray neighbors are refreshed and the entry is
 * retired; estimates never exceed true close counts, so a row below
 * the threshold in truth can never trigger.
 */
class GrapheneMitigation : public dram::MitigationHook
{
  public:
    GrapheneMitigation(const GrapheneConfig &cfg, BankId banks,
                       RowId rows_per_subarray);

    void onClose(BankId bank, const dram::CloseEvent &event,
                 std::vector<RowId> &refresh) override;

    std::uint64_t triggers() const { return triggers_; }

    /** Current Misra-Gries estimate (0 when untracked). */
    std::uint64_t estimate(BankId bank, RowId row) const;

  private:
    GrapheneConfig cfg_;
    RowId rowsPerSubarray_;
    std::vector<std::map<RowId, std::uint64_t>> tables_;
    std::uint64_t triggers_ = 0;
};

} // namespace pud::mitigation

#endif // PUD_MITIGATION_COUNTERMEASURES_H
