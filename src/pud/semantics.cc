#include "pud/semantics.h"

#include <algorithm>

namespace pud::semantics {

Geometry
geometryOf(const dram::DeviceConfig &cfg)
{
    Geometry g;
    g.rowsPerSubarray = cfg.rowsPerSubarray;
    g.rowsPerBank = cfg.rowsPerBank();
    g.supportsSimra = cfg.profile.supportsSimra;
    return g;
}

MacroEffect
comraCopy(const Geometry &g, RowId src_phys, RowId dst_phys)
{
    if (!g.contains(src_phys) || !g.contains(dst_phys))
        return MacroEffect::reject("row outside the bank");
    if (src_phys == dst_phys)
        return MacroEffect::reject("source and destination are the "
                                   "same row");
    if (!g.sameSubarray(src_phys, dst_phys))
        return MacroEffect::reject("source and destination are in "
                                   "different subarrays: the bitline "
                                   "charge cannot cross");
    MacroEffect e;
    e.valid = true;
    e.reads = {src_phys};
    e.writes = {dst_phys};
    return e;
}

MacroEffect
simraGroupWrite(const Geometry &g, RowId block_phys, int n)
{
    if (!g.supportsSimra)
        return MacroEffect::reject("module ignores grossly violating "
                                   "commands (no SiMRA support)");
    if (n < 2 || n > 32 || (n & (n - 1)) != 0)
        return MacroEffect::reject("group size must be a power of two "
                                   "in [2, 32]");
    if (!g.contains(block_phys))
        return MacroEffect::reject("row outside the bank");
    const RowId base = block_phys & ~static_cast<RowId>(n - 1);
    if (!g.sameSubarray(base, base + static_cast<RowId>(n - 1)))
        return MacroEffect::reject("activation block crosses a "
                                   "subarray boundary");
    MacroEffect e;
    e.valid = true;
    e.writes.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        e.writes.push_back(base + static_cast<RowId>(i));
    return e;
}

bool
tieable(const std::vector<int> &weights, int n)
{
    if (n <= 0 || n % 2 != 0)
        return false;
    const int half = n / 2;
    // Subset-sum over the weights: reachable[s] = some subset sums to
    // s.  A tie needs a non-empty, non-full subset (both sides of the
    // split must disagree, so both must exist).
    std::vector<char> reachable(static_cast<std::size_t>(half) + 1, 0);
    reachable[0] = 1;
    int total = 0;
    for (int w : weights) {
        if (w <= 0)
            continue;
        total += w;
        for (int s = half; s >= w; --s)
            reachable[static_cast<std::size_t>(s)] |=
                reachable[static_cast<std::size_t>(s - w)];
    }
    // A subset summing to half is non-full iff the total exceeds half,
    // i.e. the complement is non-empty.
    return total > half && reachable[static_cast<std::size_t>(half)];
}

MajorityPlan
replicatedMajorityPlan(const Geometry &g,
                       const std::vector<RowId> &operands_phys,
                       const std::vector<int> &replication,
                       RowId scratch_phys, int n)
{
    MajorityPlan plan;

    const MacroEffect block = simraGroupWrite(g, scratch_phys, n);
    if (!block.valid) {
        plan.effect = block;
        return plan;
    }
    if (operands_phys.empty() ||
        replication.size() != operands_phys.size()) {
        plan.effect = MacroEffect::reject(
            "replication vector must hold one count per operand");
        return plan;
    }
    int total = 0;
    for (int r : replication) {
        if (r <= 0) {
            plan.effect = MacroEffect::reject(
                "replication counts must be positive");
            return plan;
        }
        total += r;
    }
    if (total != n) {
        plan.effect = MacroEffect::reject(
            "replication counts must sum to the block size");
        return plan;
    }

    const RowId base = block.writes.front();
    for (RowId operand : operands_phys) {
        if (!g.contains(operand)) {
            plan.effect = MacroEffect::reject("row outside the bank");
            return plan;
        }
        if (!g.sameSubarray(operand, base)) {
            plan.effect = MacroEffect::reject(
                "operand and scratch block are in different "
                "subarrays");
            return plan;
        }
    }

    plan.base = base;
    plan.tieable = tieable(replication, n);
    plan.staging.reserve(static_cast<std::size_t>(n));
    int slot = 0;
    for (std::size_t o = 0; o < operands_phys.size(); ++o)
        for (int r = 0; r < replication[o]; ++r)
            plan.staging.emplace_back(
                operands_phys[o], base + static_cast<RowId>(slot++));

    plan.effect.valid = true;
    plan.effect.reads = operands_phys;
    std::sort(plan.effect.reads.begin(), plan.effect.reads.end());
    plan.effect.reads.erase(std::unique(plan.effect.reads.begin(),
                                        plan.effect.reads.end()),
                            plan.effect.reads.end());
    if (plan.tieable) {
        plan.effect.clobbered = block.writes;
    } else {
        plan.effect.writes = block.writes;
    }
    return plan;
}

std::optional<RowId>
andOrControlRow(const Geometry &g, RowId scratch_phys)
{
    if (!g.contains(scratch_phys))
        return std::nullopt;
    const RowId base = scratch_phys & ~RowId(7);
    const RowId rps = g.rowsPerSubarray;
    const RowId sub_begin = (base / rps) * rps;
    const RowId sub_end = sub_begin + rps;
    if (base + 8 > sub_end)
        return std::nullopt;  // block itself crosses the subarray edge
    if (base + 8 < sub_end)
        return base + 8;
    if (base > sub_begin)
        return base - 1;
    // rowsPerSubarray == 8: the block spans the whole subarray and no
    // in-subarray control row exists on either side.
    return std::nullopt;
}

} // namespace pud::semantics
