#include "hammer/tester.h"

#include <algorithm>

#include "hammer/enumerate.h"
#include "lint/absint.h"
#include "lint/effects.h"
#include "lint/linter.h"
#include "util/logging.h"

namespace pud::hammer {

std::vector<dram::SubarrayId>
ModuleTester::testedSubarrays(int count) const
{
    return hammer::testedSubarrays(device().config(), count);
}

std::vector<RowId>
ModuleTester::sampleVictims(RowId victims_per_subarray, bool odd_only,
                            int subarrays) const
{
    return hammer::sampleVictims(device().config(),
                                 victims_per_subarray, odd_only,
                                 subarrays);
}

std::uint64_t
ModuleTester::measureWithPattern(
    const Options &opt, DataPattern pattern, RowId victim,
    const std::vector<RowId> &aggressors, const Program &base,
    std::size_t loop)
{
    // Each probe patches the trip count, and optionally rewrites the
    // program to interleave nominal REFs at the tREFI cadence (which
    // depends on n).
    const auto build = [&](std::uint64_t n) {
        Program prog = base.withLoopCount(loop, n);
        if (opt.refreshInterleave)
            prog = withRefInterleave(prog, opt.timings.base);
        return prog;
    };

    dram::Device &dev = device();
    const ColId cols = dev.config().cols;
    const RowData aggr_data(cols, pattern);
    const RowData victim_data(cols, dram::negate(pattern));
    const BankId bank = opt.bank;

    const RowId victim_logical = dev.toLogical(victim);

    // Validate the pattern's shape once per measurement (not per
    // trial: only the trip counts change with n).  Errors would fatal
    // deep inside the device model; suspicious timing violations would
    // silently skew the HC_first search, so surface them once.
    {
        const lint::LintResult pre = lint::requireClean(
            build(2), dev.config(), "ModuleTester");
        if (pre.count(lint::Severity::Warning) > 0 && !warnedLint_) {
            warnedLint_ = true;
            for (const lint::Diag &d : pre.diags) {
                if (d.severity == lint::Severity::Warning)
                    warn("lint [%s]: %s", name(d.code),
                         d.message.c_str());
            }
        }
    }

    // Static reachability (once per tester): fold the full-budget
    // program through the effect predictor; if even a worst-case weak
    // cell stays below the flip threshold, the search is guaranteed to
    // burn its whole hammer budget and report no-flip.
    if (!checkedReach_) {
        checkedReach_ = true;
        const lint::ProgramEffects fx = lint::summarizeEffects(
            build(opt.search.maxHammers), dev.config());
        const lint::EffectReport rep =
            lint::predictEffects(fx, dev.config());
        if (!rep.anyLikely &&
            rep.hottestCloses >= lint::kHammerIntentCloses) {
            warn("HC_first sweep is statically unreachable on %s: at "
                 "the %llu-hammer budget the best-case predicted "
                 "damage is %.3g of the flip threshold; the search "
                 "will report no-flip",
                 dev.config().profile.moduleId.c_str(),
                 static_cast<unsigned long long>(opt.search.maxHammers),
                 rep.victims.empty()
                     ? 0.0
                     : rep.victims.front().optimisticDamage);
        }
    }

    auto trial = [&](std::uint64_t n) -> bool {
        for (RowId a : aggressors)
            dev.writeRowDirect(bank, dev.toLogical(a), aggr_data);
        dev.writeRowDirect(bank, victim_logical, victim_data);
        const auto result = bench_.run(build(n));
        // The paper strictly bounds test programs within the refresh
        // window so retention failures cannot interfere (§3.1); warn
        // when a sweep (e.g. a long t_AggOn press) exceeds it.
        const Time duration = result.endTime - result.startTime;
        if (duration > dev.config().timings.tREFW &&
            !warnedWindow_) {
            warnedWindow_ = true;
            warn("test program runs %.1f ms, beyond the %.0f ms "
                 "refresh window; real-chip runs would need "
                 "multi-window splitting",
                 static_cast<double>(duration) / units::ms,
                 static_cast<double>(dev.config().timings.tREFW) /
                     units::ms);
        }
        return bench_.countBitflips(bank, victim_logical, victim_data) >
               0;
    };

    return findHcFirst(opt.search, trial);
}

std::uint64_t
ModuleTester::measure(const Options &opt, RowId victim,
                      const std::vector<RowId> &aggressors,
                      const Program &base, std::size_t loop)
{
    if (!opt.searchWcdp) {
        return measureWithPattern(opt, opt.pattern, victim, aggressors,
                                  base, loop);
    }
    std::uint64_t best = kNoFlip;
    for (DataPattern p : dram::kAllPatterns) {
        best = std::min(best, measureWithPattern(opt, p, victim,
                                                 aggressors, base, loop));
    }
    return best;
}

std::uint64_t
ModuleTester::rhDouble(RowId victim, const Options &opt)
{
    if (victim == 0 || victim + 1 >= device().rowsPerBank())
        fatal("rhDouble: victim %u has no double-sided neighbours",
              victim);
    dram::Device &dev = device();
    const RowId a1 = dev.toLogical(victim - 1);
    const RowId a2 = dev.toLogical(victim + 1);
    return measure(opt, victim, {victim - 1, victim + 1},
                   doubleSidedRowHammer(opt.bank, a1, a2, 1, opt.timings),
                   0);
}

std::uint64_t
ModuleTester::rhSingle(RowId victim, const Options &opt)
{
    dram::Device &dev = device();
    const RowId aggr = victim - 1;
    const RowId a = dev.toLogical(aggr);
    return measure(opt, victim, {aggr},
                   singleSidedRowHammer(opt.bank, a, 1, opt.timings), 0);
}

RowId
ModuleTester::farRowInSubarray(RowId near, RowId spread) const
{
    // A "far" partner that stays within the subarray regardless of
    // the configured geometry (the paper uses 100 rows on 512+-row
    // subarrays; small test geometries clamp the spread).
    const RowId rps = rowsPerSubarray();
    const RowId s = std::max<RowId>(4, std::min<RowId>(spread, rps / 2));
    const RowId offset = near % rps;
    return offset + s < rps ? near + s : near - s;
}

std::uint64_t
ModuleTester::farDouble(RowId victim, const Options &opt, RowId spread)
{
    dram::Device &dev = device();
    const RowId near = victim - 1;
    const RowId far = farRowInSubarray(near, spread);
    const RowId a1 = dev.toLogical(near);
    const RowId a2 = dev.toLogical(far);
    return measure(opt, victim, {near, far},
                   doubleSidedRowHammer(opt.bank, a1, a2, 1, opt.timings),
                   0);
}

std::uint64_t
ModuleTester::comraDouble(RowId victim, const Options &opt, bool reversed)
{
    dram::Device &dev = device();
    RowId src = victim - 1;
    RowId dst = victim + 1;
    if (reversed)
        std::swap(src, dst);
    const RowId s = dev.toLogical(src);
    const RowId d = dev.toLogical(dst);
    return measure(opt, victim, {src, dst},
                   comraHammer(opt.bank, s, d, 1, opt.timings), 0);
}

std::uint64_t
ModuleTester::comraSingle(RowId victim, const Options &opt, RowId spread,
                          bool reversed)
{
    dram::Device &dev = device();
    const RowId near = victim - 1;
    const RowId far = farRowInSubarray(near, spread);
    RowId src = near, dst = far;
    if (reversed)
        std::swap(src, dst);
    const RowId s = dev.toLogical(src);
    const RowId d = dev.toLogical(dst);
    return measure(opt, victim, {src, dst},
                   comraHammer(opt.bank, s, d, 1, opt.timings), 0);
}

std::optional<SimraPlan>
ModuleTester::planSimraDouble(RowId victim, int n) const
{
    if (n < 2 || n > 16 || (n & (n - 1)) != 0)
        return std::nullopt;
    if ((victim & 1) == 0 || victim == 0)
        return std::nullopt;

    SimraPlan plan;
    plan.n = n;
    plan.victim = victim;
    plan.doubleSided = true;
    plan.r1 = victim - 1;  // even

    // Differing bits 1..k (bit 0 excluded): the group rows are spaced
    // by 2, sandwiching the odd victim between r1 and r1 + 2.
    RowId mask = 0;
    const int k = __builtin_ctz(static_cast<unsigned>(n));
    for (int b = 1; b <= k; ++b)
        mask |= RowId(1) << b;

    plan.r2 = plan.r1 ^ mask;

    const RowId rps = rowsPerSubarray();
    if (plan.r1 / rps != plan.r2 / rps)
        return std::nullopt;

    dram::SimraDecoder decoder(rps);
    plan.group = decoder.activatedSet(plan.r1, plan.r2);
    if (plan.group.size() != static_cast<std::size_t>(n))
        return std::nullopt;
    // The victim must be sandwiched and not itself activated.
    const bool has_low =
        std::find(plan.group.begin(), plan.group.end(), victim - 1) !=
        plan.group.end();
    const bool has_high =
        std::find(plan.group.begin(), plan.group.end(), victim + 1) !=
        plan.group.end();
    const bool activated =
        std::find(plan.group.begin(), plan.group.end(), victim) !=
        plan.group.end();
    if (!has_low || !has_high || activated)
        return std::nullopt;
    return plan;
}

std::optional<SimraPlan>
ModuleTester::planSimraSingle(RowId victim, int n) const
{
    if (n < 2 || n > 32 || (n & (n - 1)) != 0)
        return std::nullopt;
    SimraPlan plan;
    plan.n = n;
    plan.victim = victim;
    plan.doubleSided = false;

    // Contiguous block starting just above the victim; the block base
    // must be N-aligned for the bit-combination decoder.
    const RowId base = victim + 1;
    if ((base & static_cast<RowId>(n - 1)) != 0)
        return std::nullopt;
    plan.r1 = base;
    plan.r2 = base + static_cast<RowId>(n - 1);

    const RowId rps = rowsPerSubarray();
    if (plan.r1 / rps != plan.r2 / rps ||
        victim / rps != plan.r1 / rps)
        return std::nullopt;

    dram::SimraDecoder decoder(rps);
    plan.group = decoder.activatedSet(plan.r1, plan.r2);
    if (plan.group.size() != static_cast<std::size_t>(n))
        return std::nullopt;
    return plan;
}

std::uint64_t
ModuleTester::simraDouble(RowId victim, int n, const Options &opt)
{
    auto plan = planSimraDouble(victim, n);
    if (!plan)
        fatal("simraDouble: victim %u cannot be sandwiched by an "
              "N=%d group", victim, n);
    dram::Device &dev = device();
    const RowId r1 = dev.toLogical(plan->r1);
    const RowId r2 = dev.toLogical(plan->r2);
    return measure(opt, victim, plan->group,
                   simraHammer(opt.bank, r1, r2, 1, opt.timings), 0);
}

std::uint64_t
ModuleTester::simraSingle(RowId victim, int n, const Options &opt)
{
    auto plan = planSimraSingle(victim, n);
    if (!plan)
        fatal("simraSingle: victim %u cannot border an N=%d block",
              victim, n);
    dram::Device &dev = device();
    const RowId r1 = dev.toLogical(plan->r1);
    const RowId r2 = dev.toLogical(plan->r2);
    return measure(opt, victim, plan->group,
                   simraHammer(opt.bank, r1, r2, 1, opt.timings), 0);
}

std::uint64_t
ModuleTester::combinedRh(RowId victim, const CombinedSpec &spec,
                         const Options &opt)
{
    dram::Device &dev = device();

    CombinedCounts counts;
    RowId comra_src = 0, comra_dst = 0, simra_r1 = 0, simra_r2 = 0;

    if (spec.comraFraction > 0) {
        const std::uint64_t hc = comraDouble(victim, opt);
        if (hc == kNoFlip)
            return kNoFlip;
        counts.comra = static_cast<std::uint64_t>(
            spec.comraFraction * static_cast<double>(hc));
        comra_src = dev.toLogical(victim - 1);
        comra_dst = dev.toLogical(victim + 1);
    }

    std::vector<RowId> extra_aggressors{victim - 1, victim + 1};
    if (spec.simraFraction > 0) {
        auto plan = planSimraDouble(victim, spec.simraN);
        if (!plan)
            return kNoFlip;
        const std::uint64_t hc = simraDouble(victim, spec.simraN, opt);
        if (hc == kNoFlip)
            return kNoFlip;
        counts.simra = static_cast<std::uint64_t>(
            spec.simraFraction * static_cast<double>(hc));
        simra_r1 = dev.toLogical(plan->r1);
        simra_r2 = dev.toLogical(plan->r2);
        extra_aggressors.insert(extra_aggressors.end(),
                                plan->group.begin(), plan->group.end());
    }

    const RowId a1 = dev.toLogical(victim - 1);
    const RowId a2 = dev.toLogical(victim + 1);

    CombinedCounts base_counts = counts;
    base_counts.rowHammer = 1;
    const Program base =
        combinedPattern(opt.bank, a1, a2, comra_src, comra_dst,
                        simra_r1, simra_r2, base_counts, opt.timings);
    // The RowHammer loop (the probed one) is always built last.
    const std::size_t rh_loop = base.loopCount() - 1;
    return measure(opt, victim, extra_aggressors, base, rh_loop);
}

} // namespace pud::hammer
