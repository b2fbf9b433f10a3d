#include "lint/effects.h"

#include <algorithm>
#include <map>

#include "dram/cell.h"
#include "dram/disturb.h"
#include "util/saturate.h"

namespace pud::lint {

namespace {

using dram::BankId;
using dram::RowId;
using dram::TechClass;

const char *
techName(TechClass cls)
{
    switch (cls) {
      case TechClass::Conventional: return "RowHammer";
      case TechClass::Comra:        return "CoMRA";
      case TechClass::Simra:        return "SiMRA";
    }
    return "?";
}

/** Exposure of one victim, accumulated across its aggressors. */
struct Accum
{
    double left[3] = {0, 0, 0};   //!< weighted closes from below
    double right[3] = {0, 0, 0};  //!< weighted closes from above
    Time onSum[3] = {0, 0, 0};
    std::uint64_t closeCnt[3] = {0, 0, 0};
    Time delaySum = 0;
    Time a2pSum = 0, p2aSum = 0;
    int simraN = 2;
    std::size_t anchor = 0;
    std::uint64_t anchorCloses = 0;
};

double
anchorMin(const dram::FamilyProfile &p, TechClass cls)
{
    switch (cls) {
      case TechClass::Conventional: return p.rhMin;
      case TechClass::Comra:        return p.comraMin;
      case TechClass::Simra:        return p.simraMin;
    }
    return 0;
}

double
anchorAvg(const dram::FamilyProfile &p, TechClass cls)
{
    switch (cls) {
      case TechClass::Conventional: return p.rhAvg;
      case TechClass::Comra:        return p.comraAvg;
      case TechClass::Simra:        return p.simraAvg;
    }
    return 0;
}

} // namespace

EffectReport
predictEffects(const ProgramEffects &fx, const dram::DeviceConfig &cfg)
{
    EffectReport report;
    const dram::DisturbanceModel model(cfg);

    // Collect victim exposures: for each aggressor row, its distance
    // 1/2 same-subarray neighbours that are never themselves activated
    // (mirrors DisturbanceModel::applyClose's victim collection).
    std::map<std::uint64_t, Accum> victims;
    for (const auto &[key, activity] : fx.rows) {
        const std::uint64_t closes = activity.totalCloses();
        report.hottestCloses = std::max(report.hottestCloses, closes);
        if (closes == 0)
            continue;
        const auto bank = static_cast<BankId>(key >> 32);
        const auto aggr = static_cast<RowId>(key & 0xffffffffu);
        const RowId sub = aggr / cfg.rowsPerSubarray;
        for (int d : {-2, -1, 1, 2}) {
            const std::int64_t v = static_cast<std::int64_t>(aggr) + d;
            if (v < 0 ||
                v >= static_cast<std::int64_t>(cfg.rowsPerBank()))
                continue;
            const auto vr = static_cast<RowId>(v);
            if (vr / cfg.rowsPerSubarray != sub)
                continue;  // sense-amp isolation
            if (const RowActivity *va = findRow(fx, bank, vr);
                va != nullptr && (va->acts > 0 || va->totalCloses() > 0))
                continue;  // activated rows restore; not a victim

            // absint saturates its counts and sums; so does this fold.
            Accum &acc = victims[rowKey(bank, vr)];
            const double w =
                (d == 1 || d == -1) ? 1.0 : cfg.distance2Weight;
            for (int c = 0; c < 3; ++c) {
                const double wc =
                    w * static_cast<double>(activity.closes[c]);
                // d < 0: the aggressor sits below the victim.
                (d < 0 ? acc.left[c] : acc.right[c]) += wc;
                acc.onSum[c] = satAddT(acc.onSum[c], activity.onTime[c]);
                acc.closeCnt[c] = satAdd(acc.closeCnt[c],
                                         activity.closes[c]);
            }
            acc.delaySum = satAddT(acc.delaySum, activity.comraDelaySum);
            acc.a2pSum = satAddT(acc.a2pSum, activity.simraActToPreSum);
            acc.p2aSum = satAddT(acc.p2aSum, activity.simraPreToActSum);
            acc.simraN = std::max(acc.simraN, activity.simraN);
            if (closes > acc.anchorCloses) {
                acc.anchorCloses = closes;
                acc.anchor = activity.firstActIndex;
            }
        }
    }

    for (const auto &[key, acc] : victims) {
        VictimPrediction vp;
        vp.bank = static_cast<BankId>(key >> 32);
        vp.victimPhys = static_cast<RowId>(key & 0xffffffffu);
        vp.anchorIndex = acc.anchor;

        const dram::Region region = model.regionOf(vp.victimPhys);
        double best_contrib = 0;
        for (int c = 0; c < 3; ++c) {
            const double w = acc.left[c] + acc.right[c];
            if (w <= 0)
                continue;
            const auto cls = static_cast<TechClass>(c);
            const double amin = anchorMin(cfg.profile, cls);
            const double aavg = anchorAvg(cfg.profile, cls);
            if (amin <= 0 || aavg <= 0)
                continue;  // family cannot do this class (no SiMRA)

            dram::AggregateExposure e;
            e.cls = cls;
            e.simraN = acc.simraN;
            e.weightedCloses = w;
            e.tOn = acc.closeCnt[c] > 0
                        ? acc.onSum[c] /
                              static_cast<Time>(acc.closeCnt[c])
                        : 0;
            if (cls == TechClass::Comra && acc.closeCnt[c] > 0)
                e.comraDelay =
                    acc.delaySum / static_cast<Time>(acc.closeCnt[c]);
            if (cls == TechClass::Simra && acc.closeCnt[c] > 0) {
                e.simraActToPre =
                    acc.a2pSum / static_cast<Time>(acc.closeCnt[c]);
                e.simraPreToAct =
                    acc.p2aSum / static_cast<Time>(acc.closeCnt[c]);
            }
            e.doubleSided = acc.left[c] > 0 && acc.right[c] > 0;
            e.region = region;
            e.temperature = cfg.temperature;

            // Optimistic: a cell twice as weak as the weakest the
            // paper observed for this family; below 1.0 even here,
            // the calibration cannot draw a cell that flips.
            const double opt = dram::foldThreshold(cfg, e, amin / 2.0);
            vp.optimisticDamage += opt;
            vp.typicalDamage += dram::foldThreshold(cfg, e, aavg);
            vp.weightedCloses += w;
            vp.doubleSided |= e.doubleSided;
            if (opt > best_contrib) {
                best_contrib = opt;
                vp.dominantClass = cls;
            }
        }
        if (vp.weightedCloses <= 0)
            continue;
        vp.verdict = vp.optimisticDamage >= 1.0 ? Verdict::Likely
                                                : Verdict::Impossible;
        report.anyLikely |= vp.verdict == Verdict::Likely;
        report.victims.push_back(vp);
    }

    std::sort(report.victims.begin(), report.victims.end(),
              [](const VictimPrediction &a, const VictimPrediction &b) {
                  return a.optimisticDamage > b.optimisticDamage;
              });

    for (const VictimPrediction &vp : report.victims) {
        if (vp.verdict != Verdict::Likely)
            continue;
        report.diags.push_back(
            {Code::DisturbanceLikely, severityOf(Code::DisturbanceLikely),
             vp.anchorIndex,
             format("victim physical row %u (bank %u) accrues %.3g x "
                    "the weakest-cell flip threshold (%.3g x a typical "
                    "row) from %.0f weighted %s-side %s closes: "
                    "bitflips plausible on %s",
                    vp.victimPhys, vp.bank, vp.optimisticDamage,
                    vp.typicalDamage, vp.weightedCloses,
                    vp.doubleSided ? "double" : "single",
                    techName(vp.dominantClass),
                    cfg.profile.moduleId.c_str())});
    }

    if (!report.anyLikely &&
        report.hottestCloses >= kHammerIntentCloses) {
        const VictimPrediction *best =
            report.victims.empty() ? nullptr : &report.victims.front();
        report.diags.push_back(
            {Code::DisturbanceImpossible,
             severityOf(Code::DisturbanceImpossible),
             best != nullptr ? best->anchorIndex : 0,
             format("hammer-grade program (%llu closes on the hottest "
                    "row) cannot flip bits on %s: best-case predicted "
                    "damage is %.3g of the flip threshold%s -- the "
                    "sweep is statically unreachable",
                    static_cast<unsigned long long>(report.hottestCloses),
                    cfg.profile.moduleId.c_str(),
                    best != nullptr ? best->optimisticDamage : 0.0,
                    fx.exact ? "" : " (lower bound: unbalanced loop)")});
    }

    return report;
}

} // namespace pud::lint
