#include "lint/mitigation_absint.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "dram/disturb.h"

namespace pud::lint {

namespace {

using dram::BankId;
using dram::RowId;
using dram::TechClass;

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

/** One acted row of one bank, with its summary. */
struct ActedRow
{
    RowId row;
    const RowActivity *activity;
    std::uint64_t pracWeighted;  //!< exact final PRAC counter value
};

/** Per-victim proof context shared by the per-mitigation certifiers. */
struct VictimCtx
{
    BankId bank;
    RowId row;
    RowId subarray;
    dram::Region region;

    /** Acted rows of the victim's bank (all of them). */
    const std::vector<ActedRow> *banked;

    /** Sampler ref points of the victim's bank (nullptr: no trace). */
    const std::vector<const SamplerRefPoint *> *refs;
};

/** Per-mitigation judgement with the figure backing a Certain claim. */
struct Judgement
{
    MitVerdict verdict = MitVerdict::BypassPossible;

    /** Worst-case inter-refresh damage behind a MitigatedCertain. */
    double interRefreshDamage = 0;
};

std::int64_t
rowDistance(RowId a, RowId b)
{
    return std::llabs(static_cast<std::int64_t>(a) -
                      static_cast<std::int64_t>(b));
}

/**
 * Mitigation-triggered refreshes land on the trigger row and/or its
 * +-1 neighbours.  A trigger row at distance >= 4 therefore only
 * refreshes rows at distance >= 3 from the victim -- outside the
 * v-2..v+2 band whose charge/lastSide state feeds the victim's damage
 * trajectory -- so it cannot perturb bit-identity with the
 * unmitigated run.
 */
constexpr std::int64_t kInertTriggerDistance = 4;

/**
 * Upper bound on the damage ONE close of class `cls` of aggressor
 * `a` deposits on the victim, at adjacency weight `w`.
 *
 * Sound because every per-close gain is monotone in its timing
 * parameter (pressGain grows with on-time, comraDelayGain falls with
 * the copy delay, simraTimingGain grows with both gaps), so folding
 * the summary's per-row *extremes* -- largest single-close on-time,
 * smallest CoMRA delay, largest SiMRA gaps -- dominates every
 * individual close even when the program mixes timings.  Sidedness is
 * pinned to double (>= any real side strength) and the anchor to the
 * family minimum halved (weaker than any drawable cell).
 */
double
perCloseMaxDamage(const dram::DeviceConfig &cfg, const RowActivity &a,
                  TechClass cls, double w, dram::Region region)
{
    const auto c = static_cast<int>(cls);
    if (a.closes[c] == 0)
        return 0;
    const double amin = anchorMin(cfg.profile, cls);
    if (amin <= 0)
        return 0;  // family cannot flip via this class

    dram::AggregateExposure e;
    e.cls = cls;
    e.simraN = a.simraN;
    e.weightedCloses = w;
    e.tOn = a.maxOnTime[c];
    if (cls == TechClass::Comra && a.minComraDelay >= 0)
        e.comraDelay = a.minComraDelay;
    if (cls == TechClass::Simra) {
        e.simraActToPre = a.maxSimraActToPre;
        e.simraPreToAct = a.maxSimraPreToAct;
    }
    e.doubleSided = true;
    e.region = region;
    e.temperature = cfg.temperature;
    return dram::foldThreshold(cfg, e, amin / 2.0);
}

/** Max over technique classes of the per-close damage bound. */
double
perCloseMaxDamage(const dram::DeviceConfig &cfg, const RowActivity &a,
                  double w, dram::Region region)
{
    double worst = 0;
    for (int c = 0; c < 3; ++c)
        worst = std::max(
            worst, perCloseMaxDamage(cfg, a, static_cast<TechClass>(c),
                                     w, region));
    return worst;
}

/**
 * The victim's distance-1 aggressors, *if* its whole damage-relevant
 * neighbourhood is adjacent: nullopt-like empty + false when any
 * same-subarray acted row sits at distance 2.  Distance-2 aggressors
 * deposit damage on the victim but their trigger refreshes (row +-1)
 * never reach it, so no trigger-driven mitigation can bound their
 * contribution -- both PRAC and Graphene MitigatedCertain proofs
 * require the neighbourhood to be adjacent-only.
 */
bool
adjacentOnlyAggressors(const VictimCtx &v,
                       const dram::DeviceConfig &cfg,
                       std::vector<const ActedRow *> &adj)
{
    adj.clear();
    for (const ActedRow &ar : *v.banked) {
        if (ar.activity->totalCloses() == 0)
            continue;
        if (ar.row / cfg.rowsPerSubarray != v.subarray)
            continue;  // sense-amp isolation: no damage reaches v
        const std::int64_t d = rowDistance(ar.row, v.row);
        if (d > 2)
            continue;
        if (d != 1)
            return false;
        adj.push_back(&ar);
    }
    return true;
}

// ---- sampling TRR --------------------------------------------------------

/**
 * Abstract sampling-TRR transformer.  The concrete device draws one
 * uniformly random entry of the per-bank sampler ring at every REF
 * (when the ring is non-empty) and refreshes the drawn row's
 * same-subarray +-1 neighbours; the abstract window at each REF is a
 * superset of the real ring contents (absint.h), so:
 *
 *  - BypassCertain: no REFs at all, or every window row of every ref
 *    point in the victim's bank is an inert trigger (distance >= 4)
 *    -- whatever the RNG draws, the refresh never lands in v-2..v+2.
 *  - MitigatedCertain: at every ref point in the victim's bank the
 *    ring is provably non-empty (fillLo > 0) and *every* possible
 *    draw is a distance-1 same-subarray neighbour of the victim, so
 *    the draw refreshes the victim itself at every REF; the victim's
 *    damage then resets each REF and its worst accrual between REFs
 *    is bounded by the per-epoch close maxima folded through the
 *    per-close damage bound.
 */
Judgement
judgeTrr(const VictimCtx &v, const dram::DeviceConfig &cfg,
         const ProgramEffects &fx, bool sound)
{
    Judgement j;
    if (v.refs == nullptr || !sound)
        return j;
    if (fx.totalRefs == 0) {
        j.verdict = MitVerdict::BypassCertain;
        return j;
    }

    bool inert = true;
    bool must_refresh_victim = !v.refs->empty();
    for (const SamplerRefPoint *rp : *v.refs) {
        if (rp->fillLo == 0)
            must_refresh_victim = false;
        for (const auto &[row, count] : rp->window) {
            if (rowDistance(row, v.row) < kInertTriggerDistance)
                inert = false;
            if (rowDistance(row, v.row) != 1 ||
                row / cfg.rowsPerSubarray != v.subarray)
                must_refresh_victim = false;
        }
        if (!inert && !must_refresh_victim)
            break;
    }
    if (inert) {
        j.verdict = MitVerdict::BypassCertain;
        return j;
    }
    if (!must_refresh_victim)
        return j;

    // Victim refreshed at every REF: bound one epoch's damage using
    // every acted row in the blast radius (activated rows age out of
    // the window but their closes still deposit).
    double epoch = 0;
    for (const ActedRow &ar : *v.banked) {
        if (ar.row / cfg.rowsPerSubarray != v.subarray)
            continue;
        const std::int64_t d = rowDistance(ar.row, v.row);
        if (d == 0 || d > 2)
            continue;
        const double w = d == 1 ? 1.0 : cfg.distance2Weight;
        for (int c = 0; c < 3; ++c)
            epoch += static_cast<double>(
                         ar.activity->maxEpochCloses[c]) *
                     perCloseMaxDamage(cfg, *ar.activity,
                                       static_cast<TechClass>(c), w,
                                       v.region);
    }
    if (epoch < 1.0) {
        j.verdict = MitVerdict::MitigatedCertain;
        j.interRefreshDamage = epoch;
    }
    return j;
}

// ---- PRAC ----------------------------------------------------------------

/**
 * Abstract PRAC transformer.  The summary's per-row close totals give
 * the *exact* final counter of every row (pracWeightedCloses shares
 * its weight table with PracCounters via mitsem.h); drains reset
 * counters, so a row whose whole-program weighted total stays below
 * the RDT can never assert back-off, and with victimsPerRfm == 1
 * every drained row had a counter >= RDT at drain time:
 *
 *  - BypassCertain: no row of the victim's bank can ever be drained
 *    within trigger distance (drain refreshes the row and its +-1
 *    neighbours).
 *  - MitigatedCertain: the victim's damage-relevant neighbourhood is
 *    adjacent-only, so every aggressor's drain refreshes the victim
 *    (drain-until-clear discipline: the crossing row is always
 *    drained inside the close that crossed); between consecutive
 *    victim refreshes each adjacent aggressor fits at most
 *    pracMaxClosesPerAlert closes of its cheapest class.
 */
Judgement
judgePrac(const VictimCtx &v, const dram::DeviceConfig &cfg,
          const mitigation::PracConfig &pc, bool sound)
{
    Judgement j;
    if (!sound)
        return j;

    bool any_hot = false;
    bool inert = true;
    for (const ActedRow &ar : *v.banked) {
        const bool hot = ar.pracWeighted >= pc.rdt;
        any_hot |= hot;
        // Drained rows always have non-zero counters; with one victim
        // per RFM the drained row is the bank maximum, itself >= RDT.
        const bool drainable = pc.victimsPerRfm == 1 ? hot : true;
        if (drainable &&
            rowDistance(ar.row, v.row) < kInertTriggerDistance)
            inert = false;
    }
    if (!any_hot || inert) {
        j.verdict = MitVerdict::BypassCertain;
        return j;
    }

    std::vector<const ActedRow *> adj;
    if (!adjacentOnlyAggressors(v, cfg, adj) || adj.empty())
        return j;
    double inter = 0;
    for (const ActedRow *ar : adj) {
        std::uint64_t per_alert = 0;
        for (int c = 0; c < 3; ++c)
            if (ar->activity->closes[c] > 0)
                per_alert = std::max(
                    per_alert,
                    mitigation::pracMaxClosesPerAlert(
                        pc, static_cast<TechClass>(c)));
        inter += static_cast<double>(per_alert) *
                 perCloseMaxDamage(cfg, *ar->activity, 1.0, v.region);
    }
    if (inter < 1.0) {
        j.verdict = MitVerdict::MitigatedCertain;
        j.interRefreshDamage = inter;
    }
    return j;
}

// ---- PARA ----------------------------------------------------------------

/**
 * Abstract PARA transformer: a Bernoulli coin per close.  With
 * p == 0 the mitigation is provably inert; with any p > 0 it can both
 * fire (perturbing bit-identity -- aggressors sit within distance 2,
 * so a fire always lands in the victim's band) and miss every draw
 * (miss probability (1-p)^closes > 0), so neither Certain verdict is
 * ever available.
 */
Judgement
judgePara(const mitigation::ParaConfig &pc)
{
    Judgement j;
    if (pc.probability <= 0)
        j.verdict = MitVerdict::BypassCertain;
    return j;
}

// ---- Graphene ------------------------------------------------------------

/**
 * Abstract Graphene transformer.  A Misra-Gries estimate never
 * exceeds the true close count, so a row whose whole-program closes
 * stay below the threshold can never trigger; and when the distinct
 * closed rows of a bank fit the table the estimates are *exact*
 * (mitsem.h), so an adjacent aggressor is guaranteed to trigger -- and
 * refresh the victim -- within every `threshold` closes.
 */
Judgement
judgeGraphene(const VictimCtx &v, const dram::DeviceConfig &cfg,
              const mitigation::GrapheneConfig &gc, bool sound)
{
    Judgement j;
    if (!sound)
        return j;

    bool inert = true;
    std::size_t distinct = 0;
    for (const ActedRow &ar : *v.banked) {
        if (ar.activity->totalCloses() == 0)
            continue;
        ++distinct;
        if (ar.activity->totalCloses() >= gc.threshold &&
            rowDistance(ar.row, v.row) < kInertTriggerDistance)
            inert = false;
    }
    if (inert) {
        j.verdict = MitVerdict::BypassCertain;
        return j;
    }

    std::vector<const ActedRow *> adj;
    if (!mitigation::grapheneCountsExact(gc, distinct) ||
        !adjacentOnlyAggressors(v, cfg, adj) || adj.empty())
        return j;
    double inter = 0;
    for (const ActedRow *ar : adj)
        inter += static_cast<double>(gc.threshold) *
                 perCloseMaxDamage(cfg, *ar->activity, 1.0, v.region);
    if (inter < 1.0) {
        j.verdict = MitVerdict::MitigatedCertain;
        j.interRefreshDamage = inter;
    }
    return j;
}

} // namespace

std::vector<Diag>
analyzeMitigations(const dram::DeviceConfig &cfg,
                   const MitigationSpec &spec, const ProgramEffects &fx,
                   const SamplerTrace *trace, EffectReport &report)
{
    std::vector<Diag> diags;
    if (!spec.any())
        return diags;

    const dram::DisturbanceModel model(cfg);
    const bool trace_ok = trace != nullptr && !trace->truncated;
    // Inexact summaries under-count closes, so neither "never
    // triggers" nor "always refreshes" survives; every Certain
    // verdict degrades to Possible (never unsoundly Certain).
    const bool sound = fx.exact;

    // Per-bank acted-row tables with their exact final PRAC counters.
    std::vector<std::vector<ActedRow>> acted(cfg.banks);
    for (const auto &[key, activity] : fx.rows) {
        const auto bank = static_cast<BankId>(key >> 32);
        const auto row = static_cast<RowId>(key & 0xffffffffu);
        if (bank >= cfg.banks || activity.totalCloses() == 0)
            continue;
        acted[bank].push_back(
            {row, &activity,
             mitigation::pracWeightedCloses(spec.pracConfig,
                                            activity.closes)});
    }
    std::vector<std::vector<const SamplerRefPoint *>> refs(cfg.banks);
    if (trace != nullptr)
        for (const SamplerRefPoint &rp : trace->refs)
            if (rp.bank < cfg.banks)
                refs[rp.bank].push_back(&rp);

    bool prac_ever_alerts = false;
    std::uint64_t prac_hottest = 0;
    for (const auto &rows : acted)
        for (const ActedRow &ar : rows) {
            prac_hottest = std::max(prac_hottest, ar.pracWeighted);
            prac_ever_alerts |= ar.pracWeighted >= spec.pracConfig.rdt;
        }

    std::string enabled;
    for (const char *n : {spec.trr ? "TRR" : nullptr,
                          spec.prac ? "PRAC" : nullptr,
                          spec.para ? "PARA" : nullptr,
                          spec.graphene ? "Graphene" : nullptr})
        if (n != nullptr)
            enabled += enabled.empty() ? n : (std::string(", ") + n);

    const VictimPrediction *first_likely = nullptr;
    for (VictimPrediction &vp : report.victims) {
        VictimCtx v;
        v.bank = vp.bank;
        v.row = vp.victimPhys;
        v.subarray = vp.victimPhys / cfg.rowsPerSubarray;
        v.region = model.regionOf(vp.victimPhys);
        v.banked = &acted[vp.bank];
        v.refs = spec.trr && trace_ok ? &refs[vp.bank] : nullptr;

        // Per-mitigation judgements; disabled mitigations are simply
        // absent from the meet.
        std::vector<Judgement> js;
        const char *certifier = nullptr;
        double certified_damage = 0;
        auto add = [&](const char *name, Judgement jd) {
            if (jd.verdict == MitVerdict::MitigatedCertain &&
                certifier == nullptr) {
                certifier = name;
                certified_damage = jd.interRefreshDamage;
            }
            js.push_back(jd);
        };
        if (spec.trr)
            add("TRR", judgeTrr(v, cfg, fx, sound && trace_ok));
        if (spec.prac)
            add("PRAC", judgePrac(v, cfg, spec.pracConfig, sound));
        if (spec.para)
            add("PARA", judgePara(spec.paraConfig));
        if (spec.graphene)
            add("Graphene",
                judgeGraphene(v, cfg, spec.grapheneConfig, sound));

        // Combined verdict: one certain mitigation suffices to stop
        // the flips; a certain bypass needs *every* enabled mechanism
        // provably inert.
        bool any_mitigated = false, all_bypassed = !js.empty();
        for (const Judgement &jd : js) {
            any_mitigated |= jd.verdict == MitVerdict::MitigatedCertain;
            all_bypassed &= jd.verdict == MitVerdict::BypassCertain;
        }
        vp.mitVerdict = any_mitigated ? MitVerdict::MitigatedCertain
                        : all_bypassed ? MitVerdict::BypassCertain
                                       : MitVerdict::BypassPossible;
        vp.bypassHcFirstLowerBound =
            vp.optimisticDamage > 0
                ? vp.weightedCloses / vp.optimisticDamage
                : 0;

        // Diagnostics only where mitigation matters: victims the
        // effect predictor already ruled Likely.
        if (vp.verdict != Verdict::Likely)
            continue;
        if (first_likely == nullptr)
            first_likely = &vp;

        switch (vp.mitVerdict) {
          case MitVerdict::MitigatedCertain:
            diags.push_back(
                {Code::MitMitigatedCertain,
                 severityOf(Code::MitMitigatedCertain), vp.anchorIndex,
                 format("victim physical row %u (bank %u): %s provably "
                        "refreshes it before damage accrues -- worst "
                        "inter-refresh damage %.3g of the flip "
                        "threshold; no bitflips under the enabled "
                        "mitigations (%s)",
                        vp.victimPhys, vp.bank,
                        certifier != nullptr ? certifier : "?",
                        certified_damage, enabled.c_str())});
            break;
          case MitVerdict::BypassCertain:
            diags.push_back(
                {Code::MitBypassCertain,
                 severityOf(Code::MitBypassCertain), vp.anchorIndex,
                 format("victim physical row %u (bank %u): every "
                        "enabled mitigation (%s) is provably inert "
                        "within distance %lld -- the %.0f weighted "
                        "closes land unmitigated (static bypass "
                        "HC_first lower bound: %.0f weighted closes)",
                        vp.victimPhys, vp.bank, enabled.c_str(),
                        static_cast<long long>(kInertTriggerDistance) -
                            1,
                        vp.weightedCloses,
                        vp.bypassHcFirstLowerBound)});
            break;
          case MitVerdict::BypassPossible:
          case MitVerdict::NotEvaluated: {
            std::string why;
            if (!fx.exact)
                why = "; summary is a lower bound (unbalanced loop)";
            else if (spec.trr && !trace_ok)
                why = "; sampler trace unavailable or truncated";
            else if (spec.para && spec.paraConfig.probability > 0)
                why = format("; PARA miss probability %.3g over the "
                             "victim's exposure",
                             mitigation::paraMissProbability(
                                 spec.paraConfig,
                                 static_cast<std::uint64_t>(
                                     vp.weightedCloses)));
            diags.push_back(
                {Code::MitBypassPossible,
                 severityOf(Code::MitBypassPossible), vp.anchorIndex,
                 format("victim physical row %u (bank %u): no enabled "
                        "mitigation (%s) provably stops it, and the "
                        "bypass is not certain either%s",
                        vp.victimPhys, vp.bank, enabled.c_str(),
                        why.c_str())});
            break;
          }
        }

        // U-TRR-style decoy dilution: the victim can flip, TRR is on
        // and not certainly stopping it, and the exactly-known
        // sampler windows hold mostly non-adjacent rows, so the draw
        // rarely protects this victim.
        if (spec.trr && trace_ok &&
            vp.mitVerdict != MitVerdict::MitigatedCertain) {
            std::uint64_t fill_sum = 0, adj_sum = 0;
            for (const SamplerRefPoint *rp : refs[vp.bank]) {
                if (!rp->exact)
                    continue;
                for (const auto &[row, count] : rp->window) {
                    fill_sum += count;
                    if (rowDistance(row, vp.victimPhys) == 1)
                        adj_sum += count;
                }
            }
            if (fill_sum >= 64 && adj_sum * 2 <= fill_sum)
                diags.push_back(
                    {Code::MitTrrSamplerStarved,
                     severityOf(Code::MitTrrSamplerStarved),
                     vp.anchorIndex,
                     format("victim physical row %u (bank %u): TRR "
                            "sampler windows hold the victim's "
                            "aggressors in only %.1f%% of %llu "
                            "sampled slots -- decoy activations "
                            "starve the protective draw",
                            vp.victimPhys, vp.bank,
                            100.0 * static_cast<double>(adj_sum) /
                                static_cast<double>(fill_sum),
                            static_cast<unsigned long long>(
                                fill_sum))});
        }
    }

    // A hammer-grade program that keeps every PRAC counter below the
    // RDT is skirting the alert threshold by construction.
    if (spec.prac && sound && !prac_ever_alerts &&
        first_likely != nullptr)
        diags.push_back(
            {Code::MitAboThresholdSkirted,
             severityOf(Code::MitAboThresholdSkirted),
             first_likely->anchorIndex,
             format("flip-grade sweep never asserts PRAC back-off: "
                    "hottest weighted activation counter reaches %llu "
                    "of the %u RDT -- the ABO threshold is being "
                    "skirted",
                    static_cast<unsigned long long>(prac_hottest),
                    spec.pracConfig.rdt)});

    return diags;
}

} // namespace pud::lint
