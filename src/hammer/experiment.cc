#include "hammer/experiment.h"

#include <algorithm>

#include "hammer/enumerate.h"
#include "lint/absint.h"
#include "lint/effects.h"
#include "lint/linter.h"
#include "util/logging.h"

namespace pud::hammer {

dram::DeviceConfig
populationDeviceConfig(const PopulationConfig &cfg, int module)
{
    dram::DeviceConfig dev_cfg =
        dram::makeConfig(cfg.moduleId, cfg.seed + module);
    if (cfg.rowsPerSubarray)
        dev_cfg.rowsPerSubarray = cfg.rowsPerSubarray;
    return dev_cfg;
}

std::vector<RowId>
populationVictims(const PopulationConfig &cfg)
{
    if (cfg.modules <= 0)
        return {};
    // Geometry-only (no Device is built): every module instance shares
    // the same geometry, so one enumeration serves the whole fleet.
    return sampleVictims(populationDeviceConfig(cfg, 0),
                         cfg.victimsPerSubarray, cfg.oddOnly);
}

std::vector<ShardPlan>
planPopulationShards(const PopulationConfig &cfg,
                     std::size_t victims_per_module)
{
    std::vector<ShardPlan> shards;
    const std::size_t n = victims_per_module;
    const std::size_t chunk =
        cfg.perVictimChunks ? std::max<std::size_t>(1, cfg.victimChunk)
                            : std::max<std::size_t>(1, n);
    for (int m = 0; m < cfg.modules; ++m) {
        const std::size_t base = static_cast<std::size_t>(m) * n;
        for (std::size_t begin = 0; begin < n; begin += chunk) {
            ShardPlan s;
            s.module = m;
            s.victimBegin = begin;
            s.victimEnd = std::min(n, begin + chunk);
            s.slotBase = base + begin;
            shards.push_back(s);
        }
        if (n == 0) {
            // Keep one (empty) shard per module so telemetry still
            // reports every module instance.
            shards.push_back(ShardPlan{m, 0, 0, base});
        }
    }
    return shards;
}

std::vector<std::vector<double>>
dropIncomplete(const std::vector<std::vector<double>> &series)
{
    if (series.empty())
        return {};
    const std::size_t n = series.front().size();
    for (const auto &s : series)
        if (s.size() != n)
            panic("dropIncomplete: ragged series");

    std::vector<std::vector<double>> out(series.size());
    for (std::size_t i = 0; i < n; ++i) {
        bool ok = true;
        for (const auto &s : series)
            if (std::isnan(s[i]))
                ok = false;
        if (!ok)
            continue;
        for (std::size_t k = 0; k < series.size(); ++k)
            out[k].push_back(series[k][i]);
    }
    return out;
}

std::uint64_t
runTrrExperiment(ModuleTester &tester, TrrTechnique tech,
                 const TrrConfig &cfg, bool trr_enabled,
                 dram::MitigationHook *hook)
{
    dram::Device &dev = tester.device();
    const ColId cols = dev.config().cols;
    const RowId rps = dev.config().rowsPerSubarray;
    const dram::SubarrayId sub = dev.config().subarraysPerBank / 2;
    const RowId base = sub * rps;

    // Profiling (below) must observe the chip's *intrinsic*
    // vulnerability, exactly as the U-TRR methodology does on real
    // chips: TRR stays off until the measured pattern runs.
    dev.setTrrEnabled(false);

    // SiMRA is most effective with 1 -> 0 flips (Obs. 14): an all-ones
    // victim (all-zeros aggressor) pattern.  RowHammer and CoMRA use
    // the checkerboard WCDP.
    const DataPattern aggr_pattern = tech == TrrTechnique::Simra
                                         ? DataPattern::P00
                                         : DataPattern::P55;
    const RowData aggr_data(cols, aggr_pattern);
    const RowData victim_data(cols, dram::negate(aggr_pattern));

    PatternTimings t;

    // Aggressor geometry in the middle of the subarray.
    std::vector<RowId> aggressors_phys;
    Program program;
    const RowId mid = base + rps / 2;

    switch (tech) {
      case TrrTechnique::RowHammer:
      case TrrTechnique::Comra: {
        // Like the U-TRR methodology, profile candidate victims first
        // and aim the N-sided pattern at the most vulnerable one.
        RowId best_victim = mid + 1;
        std::uint64_t best_hc = ~std::uint64_t(0);
        ModuleTester::Options profile_opt;
        profile_opt.pattern = aggr_pattern;
        for (RowId v = base + 5; v + 8 + 2 * cfg.nSided < base + rps;
             v += 4) {
            const std::uint64_t hc = tester.rhDouble(v, profile_opt);
            if (hc < best_hc) {
                best_hc = hc;
                best_victim = v;
            }
        }

        // N aggressors spaced by 2, sandwiching odd victims; for CoMRA
        // they are walked as (src, dst) pairs.
        int n = cfg.nSided;
        if (tech == TrrTechnique::Comra && n % 2)
            ++n;
        for (int i = 0; i < n; ++i)
            aggressors_phys.push_back(best_victim - 1 +
                                      2 * static_cast<RowId>(i));
        std::vector<RowId> aggressors_logical;
        for (RowId a : aggressors_phys)
            aggressors_logical.push_back(dev.toLogical(a));
        const RowId dummy = dev.toLogical(base + 4);
        const std::uint64_t acts_per_cycle =
            static_cast<std::uint64_t>(cfg.actsPerTrefi) /
            aggressors_phys.size();
        const std::uint64_t cycles = std::max<std::uint64_t>(
            1, cfg.hammersPerAggressor / std::max<std::uint64_t>(
                                             1, acts_per_cycle));
        program = trrBypassPattern(cfg.bank, aggressors_logical, dummy,
                                   tech == TrrTechnique::Comra, cycles,
                                   t, cfg.actsPerTrefi);
        break;
      }
      case TrrTechnique::Simra: {
        // A spaced (bit-combination) group leaves its sandwiched
        // victims invisible to the TRR sampler, which only observes
        // the two issued ACT addresses (Obs. 26).  32-row activation
        // only resolves as a contiguous block in the modeled decoder
        // (paper footnote 3), so it falls back to edge victims.
        std::optional<SimraPlan> plan;
        if (cfg.simraN <= 16) {
            const RowId victim = (mid & ~RowId(3)) | 1;
            plan = tester.planSimraDouble(victim, cfg.simraN);
        } else {
            plan = tester.planSimraSingle(
                ((mid / cfg.simraN) * cfg.simraN) - 1, cfg.simraN);
        }
        if (!plan)
            fatal("runTrrExperiment: no SiMRA-%d group near row %u",
                  cfg.simraN, mid);
        aggressors_phys = plan->group;
        const std::uint64_t ops_per_cycle =
            static_cast<std::uint64_t>(cfg.actsPerTrefi) / 2;
        const std::uint64_t cycles = std::max<std::uint64_t>(
            1, cfg.hammersPerAggressor / ops_per_cycle);
        program = trrSimraPattern(cfg.bank, dev.toLogical(plan->r1),
                                  dev.toLogical(plan->r2), cycles, t,
                                  cfg.actsPerTrefi);
        break;
      }
    }

    // Enable the mechanism under test only now, with a clean sampler:
    // the profiling sweep above issued thousands of ACTs that would
    // otherwise still sit in the sampler ring and soak up the measured
    // run's first TRR decisions.  A close-driven hook likewise only
    // sees the measured pattern, not the profiling traffic.
    dev.setTrrEnabled(trr_enabled);
    dev.resetTrrSampler();
    if (hook != nullptr)
        dev.setMitigation(hook);

    // Initialize the whole subarray: aggressors with the pattern,
    // everything else as a victim.
    auto is_aggr = [&](RowId p) {
        return std::find(aggressors_phys.begin(), aggressors_phys.end(),
                         p) != aggressors_phys.end();
    };
    for (RowId p = base; p < base + rps; ++p) {
        dev.writeRowDirect(cfg.bank, dev.toLogical(p),
                           is_aggr(p) ? aggr_data : victim_data);
    }

    // Pre-flight: TRR bypass patterns are intricate (per-tREFI phase
    // structure, dummy-row flooding) and easy to get protocol-wrong
    // when the geometry parameters change; refuse to run a program the
    // device would fatal on.  Timing warnings (the model's REF issues
    // faster than tRFC) are expected and not reported here.
    lint::requireClean(program, dev.config(), "runTrrExperiment");

    // Static reachability: a TRR configuration whose hammer budget
    // cannot cross the flip threshold even ignoring TRR's victim
    // refreshes wastes the whole (slow, REF-dense) run.
    {
        const lint::ProgramEffects fx =
            lint::summarizeEffects(program, dev.config());
        const lint::EffectReport rep =
            lint::predictEffects(fx, dev.config());
        if (!rep.anyLikely &&
            rep.hottestCloses >= lint::kHammerIntentCloses) {
            warn("TRR experiment is statically unreachable on %s: "
                 "best-case predicted damage is %.3g of the flip "
                 "threshold before TRR even intervenes",
                 dev.config().profile.moduleId.c_str(),
                 rep.victims.empty()
                     ? 0.0
                     : rep.victims.front().optimisticDamage);
        }
    }

    tester.bench().run(program);

    std::uint64_t flips = 0;
    for (RowId p = base; p < base + rps; ++p) {
        if (is_aggr(p))
            continue;
        flips += tester.bench().countBitflips(
            cfg.bank, dev.toLogical(p), victim_data);
    }
    dev.setTrrEnabled(false);
    if (hook != nullptr)
        dev.setMitigation(nullptr);
    return flips;
}

} // namespace pud::hammer
