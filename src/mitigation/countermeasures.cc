#include "mitigation/countermeasures.h"

#include <algorithm>

#include "util/logging.h"

namespace pud::mitigation {

ComputeRegionPolicy::ComputeRegionPolicy(RowId subarray_rows,
                                         RowId compute_rows,
                                         int refresh_every_ops)
    : subarrayRows_(subarray_rows), computeRows_(compute_rows),
      refreshEveryOps_(refresh_every_ops)
{
    if (compute_rows == 0 || compute_rows > subarray_rows)
        fatal("ComputeRegionPolicy: %u compute rows in a %u-row "
              "subarray", compute_rows, subarray_rows);
    if (refresh_every_ops <= 0)
        fatal("ComputeRegionPolicy: non-positive refresh interval");
}

bool
ComputeRegionPolicy::inComputeRegion(RowId row_offset) const
{
    return row_offset < computeRows_;
}

bool
ComputeRegionPolicy::allowsSimra(std::span<const RowId> row_offsets) const
{
    return std::all_of(row_offsets.begin(), row_offsets.end(),
                       [this](RowId r) { return inComputeRegion(r); });
}

bool
ComputeRegionPolicy::allowsComra(RowId src_offset, RowId dst_offset) const
{
    return inComputeRegion(src_offset) || inComputeRegion(dst_offset);
}

RowId
ComputeRegionPolicy::onSimraOp()
{
    if (++opsSinceRefresh_ < refreshEveryOps_)
        return dram::kNoRow;
    opsSinceRefresh_ = 0;
    const RowId row = nextRefresh_;
    nextRefresh_ = (nextRefresh_ + 1) % computeRows_;
    return row;
}

std::uint64_t
ComputeRegionPolicy::maxOpsBetweenRefreshes() const
{
    return static_cast<std::uint64_t>(computeRows_) *
           static_cast<std::uint64_t>(refreshEveryOps_);
}

std::vector<RowId>
clusteredActivationSet(RowId row, int n, RowId rows_per_subarray)
{
    if (n <= 0 || (n & (n - 1)) != 0)
        fatal("clusteredActivationSet: N=%d not a power of two", n);
    const RowId base_sub = (row / rows_per_subarray) * rows_per_subarray;
    const RowId offset = row - base_sub;
    const RowId block = offset & ~static_cast<RowId>(n - 1);
    std::vector<RowId> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i)
        out.push_back(base_sub + block + static_cast<RowId>(i));
    return out;
}

bool
hasSandwichedVictim(std::span<const RowId> sorted_group)
{
    for (std::size_t i = 0; i + 1 < sorted_group.size(); ++i) {
        const RowId gap = sorted_group[i + 1] - sorted_group[i];
        if (gap == 2)
            return true;
    }
    return false;
}

void
appendAdjacentRows(RowId row, RowId rows_per_subarray,
                   std::vector<RowId> &out)
{
    const RowId sub = row / rows_per_subarray;
    if (row > 0 && (row - 1) / rows_per_subarray == sub)
        out.push_back(row - 1);
    if ((row + 1) / rows_per_subarray == sub)
        out.push_back(row + 1);
}

PracMitigation::PracMitigation(const PracConfig &cfg, BankId banks,
                               RowId rows_per_bank,
                               RowId rows_per_subarray)
    : counters_(cfg, banks, rows_per_bank),
      rowsPerSubarray_(rows_per_subarray)
{
    if (rows_per_subarray == 0)
        fatal("PracMitigation: zero rows per subarray");
}

void
PracMitigation::onClose(BankId bank, const dram::CloseEvent &event,
                        std::vector<RowId> &refresh)
{
    if (!counters_.onClose(bank, event.rows, event.cls))
        return;
    ++alerts_;
    // The memory controller services the back-off before any further
    // traffic: RFMs drain until no counter is at/above the RDT.  Each
    // drained (highest-count) row is refreshed together with its +-1
    // same-subarray neighbors -- its disturbance victims.
    std::vector<RowId> drained;
    while (counters_.alertPending(bank)) {
        drained.clear();
        if (counters_.onRfm(bank, &drained) == 0)
            break;
        ++rfms_;
        for (RowId d : drained) {
            refresh.push_back(d);
            appendAdjacentRows(d, rowsPerSubarray_, refresh);
        }
    }
}

ParaMitigation::ParaMitigation(const ParaConfig &cfg,
                               RowId rows_per_subarray)
    : cfg_(cfg), rowsPerSubarray_(rows_per_subarray), rng_(cfg.seed)
{
    if (rows_per_subarray == 0)
        fatal("ParaMitigation: zero rows per subarray");
}

void
ParaMitigation::onClose(BankId bank, const dram::CloseEvent &event,
                        std::vector<RowId> &refresh)
{
    (void)bank;
    for (RowId r : event.rows) {
        if (!rng_.chance(cfg_.probability))
            continue;
        ++fires_;
        appendAdjacentRows(r, rowsPerSubarray_, refresh);
    }
}

bool
ParaMitigation::preview(std::span<const dram::LoggedClose> closes)
{
    // onClose() draws one coin per closed row, in order; its state is
    // nothing else.
    const Rng saved = rng_;
    for (const dram::LoggedClose &close : closes) {
        for (std::size_t i = 0; i < close.rows.size(); ++i) {
            if (rng_.chance(cfg_.probability)) {
                rng_ = saved;
                return false;
            }
        }
    }
    return true;
}

GrapheneMitigation::GrapheneMitigation(const GrapheneConfig &cfg,
                                       BankId banks,
                                       RowId rows_per_subarray)
    : cfg_(cfg), rowsPerSubarray_(rows_per_subarray), tables_(banks)
{
    if (cfg.tableSize == 0)
        fatal("GrapheneMitigation: zero table size");
    if (cfg.threshold == 0)
        fatal("GrapheneMitigation: zero threshold");
    if (rows_per_subarray == 0)
        fatal("GrapheneMitigation: zero rows per subarray");
}

void
GrapheneMitigation::onClose(BankId bank, const dram::CloseEvent &event,
                            std::vector<RowId> &refresh)
{
    auto &table = tables_.at(bank);
    for (RowId r : event.rows) {
        auto it = table.find(r);
        if (it == table.end()) {
            if (table.size() < cfg_.tableSize) {
                it = table.emplace(r, 0).first;
            } else {
                // Misra-Gries spill: the untracked arrival is charged
                // against every tracked count instead of evicting.
                for (auto slot = table.begin(); slot != table.end();) {
                    if (--slot->second == 0)
                        slot = table.erase(slot);
                    else
                        ++slot;
                }
                continue;
            }
        }
        if (++it->second >= cfg_.threshold) {
            ++triggers_;
            appendAdjacentRows(r, rowsPerSubarray_, refresh);
            table.erase(it);
        }
    }
}

std::uint64_t
GrapheneMitigation::estimate(BankId bank, RowId row) const
{
    const auto &table = tables_.at(bank);
    const auto it = table.find(row);
    return it == table.end() ? 0 : it->second;
}

} // namespace pud::mitigation
