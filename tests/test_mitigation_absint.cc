/**
 * @file
 * Unit tests for the mitigation bypass certifier
 * (lint/mitigation_absint.h): per-mechanism verdict rules, the
 * three-valued lattice's degradation at pass caps, trip-count
 * independence of the abstract transformers, SARIF goldens for every
 * Mit* code, and the executor pre-flight integration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lint/effects.h"
#include "lint/linter.h"
#include "lint/mitigation_absint.h"
#include "lint/report.h"

namespace {

using namespace pud;
using namespace pud::bender;
using namespace pud::lint;

const dram::TimingParams kT{};

/**
 * One bank, two 64-row subarrays, identity mapping, and Table 2
 * anchors scaled down so a few hundred closes cross the flip
 * threshold: a ~600-trip double-sided hammer is Likely, which is what
 * makes the certifier emit its per-victim diagnostics.
 */
dram::DeviceConfig
mitConfig()
{
    dram::DeviceConfig cfg = dram::makeConfig("HMA81GU7AFR8N-UH");
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 64;
    cfg.profile.mapping = dram::MappingScheme::Sequential;
    cfg.profile.rhMin = 400;
    cfg.profile.rhAvg = 900;
    cfg.profile.comraMin = 160;
    cfg.profile.comraAvg = 360;
    cfg.profile.simraMin = 80;
    cfg.profile.simraAvg = 180;
    return cfg;
}

bool
has(const LintResult &r, Code code)
{
    return std::any_of(r.diags.begin(), r.diags.end(),
                       [&](const Diag &d) { return d.code == code; });
}

std::size_t
countCode(const LintResult &r, Code code)
{
    return static_cast<std::size_t>(
        std::count_if(r.diags.begin(), r.diags.end(),
                      [&](const Diag &d) { return d.code == code; }));
}

std::string
messageOf(const LintResult &r, Code code)
{
    for (const Diag &d : r.diags)
        if (d.code == code)
            return d.message;
    return "";
}

/** Classic double-sided hammer around `victim`, optional REF/trip. */
void
appendDoubleSided(Program &p, dram::RowId victim, std::uint64_t trips,
                  bool ref_in_loop)
{
    p.loopBegin(trips)
        .act(0, victim - 1, kT.tRFC)
        .pre(0, kT.tRAS)
        .act(0, victim + 1, kT.tRC)
        .pre(0, kT.tRAS);
    if (ref_in_loop)
        p.ref(kT.tRC).nop(kT.tRFC);
    p.loopEnd();
}

void
appendSingleSided(Program &p, dram::RowId aggressor,
                  std::uint64_t trips, bool ref_in_loop)
{
    p.loopBegin(trips).act(0, aggressor, kT.tRFC).pre(0, kT.tRAS);
    if (ref_in_loop)
        p.ref(kT.tRC).nop(kT.tRFC);
    p.loopEnd();
}

struct Analysis
{
    LintResult result;
    EffectReport report;
};

Analysis
analyze(const Program &p, const dram::DeviceConfig &cfg,
        const MitigationSpec &spec)
{
    LintOptions opts;
    opts.mitigations = spec;
    Analysis a;
    a.result = lintProgram(p, cfg, opts, &a.report);
    return a;
}

const VictimPrediction *
victimAt(const EffectReport &report, dram::RowId row)
{
    for (const VictimPrediction &vp : report.victims)
        if (vp.victimPhys == row)
            return &vp;
    return nullptr;
}

// ---- sampling TRR ------------------------------------------------------

TEST(MitAbsint, TrrRefInLoopCertifiesMitigated)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/true);
    MitigationSpec spec;
    spec.trr = true;
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->verdict, Verdict::Likely);
    EXPECT_EQ(v->mitVerdict, MitVerdict::MitigatedCertain);
    EXPECT_TRUE(has(a.result, Code::MitMitigatedCertain));
    EXPECT_FALSE(has(a.result, Code::MitBypassCertain));
}

TEST(MitAbsint, TrrRefFreeCertifiesBypass)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.trr = true;
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::BypassCertain);
    EXPECT_TRUE(has(a.result, Code::MitBypassCertain));
    // The bypass bound is reported and reachable for a Likely victim.
    EXPECT_GT(v->bypassHcFirstLowerBound, 0.0);
    EXPECT_LE(v->bypassHcFirstLowerBound, v->weightedCloses);
}

TEST(MitAbsint, TrrDecoyFloodStarvesTheSamplerAndBypasses)
{
    // Phase 1: fill the sampler ring with a far decoy.  Straight-line
    // (not looped) so every REF is a walked, *exact* trace point --
    // the starvation heuristic only trusts exactly-known windows.
    // Phase 2: REF-free double-sided pressure on victim 10.
    Program p;
    for (int i = 0; i < 80; ++i) {
        p.act(0, 40, kT.tRFC)
            .pre(0, kT.tRAS)
            .ref(kT.tRC)
            .nop(kT.tRFC);
    }
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.trr = true;
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    // Every sampled row sits at distance 30: provably inert.
    EXPECT_EQ(v->mitVerdict, MitVerdict::BypassCertain);
    EXPECT_TRUE(has(a.result, Code::MitTrrSamplerStarved));
    const std::string msg =
        messageOf(a.result, Code::MitTrrSamplerStarved);
    EXPECT_NE(msg.find("starve"), std::string::npos);
}

TEST(MitAbsint, TrrTraceTruncationDegradesToPossible)
{
    // Loop REF points carry multiplicity, so a looped REF-per-trip
    // hammer never hits the pass cap no matter the trip count -- it
    // stays MitigatedCertain.  The *unrolled* equivalent burns one
    // trace point per REF, overruns kMaxSamplerRefPoints, and the
    // Certain verdict must degrade to the sound refusal, never stay
    // (unsoundly) Certain.
    const std::uint64_t trips = kMaxSamplerRefPoints + 64;
    MitigationSpec spec;
    spec.trr = true;
    const dram::DeviceConfig cfg = mitConfig();

    Program looped;
    appendDoubleSided(looped, 10, trips, /*ref_in_loop=*/true);
    const Analysis al = analyze(looped, cfg, spec);
    const VictimPrediction *vl = victimAt(al.report, 10);
    ASSERT_NE(vl, nullptr);
    EXPECT_EQ(vl->mitVerdict, MitVerdict::MitigatedCertain);

    Program unrolled;
    for (std::uint64_t i = 0; i < trips; ++i) {
        unrolled.act(0, 9, kT.tRFC)
            .pre(0, kT.tRAS)
            .act(0, 11, kT.tRC)
            .pre(0, kT.tRAS)
            .ref(kT.tRC)
            .nop(kT.tRFC);
    }
    const Analysis au = analyze(unrolled, cfg, spec);
    const VictimPrediction *vu = victimAt(au.report, 10);
    ASSERT_NE(vu, nullptr);
    EXPECT_EQ(vu->mitVerdict, MitVerdict::BypassPossible);
    const std::string msg =
        messageOf(au.result, Code::MitBypassPossible);
    EXPECT_NE(msg.find("truncated"), std::string::npos);
}

// ---- trip-count independence -------------------------------------------

TEST(MitAbsint, VerdictsIndependentOfLoopTripRepresentation)
{
    // The abstract transformers must see a loop body the same way at
    // any trip count representation: looped vs hand-unrolled programs
    // are inst-for-inst equivalent, so every victim's verdict and
    // bound must match exactly.
    MitigationSpec spec;
    spec.trr = true;
    spec.prac = true;
    spec.para = true;
    spec.graphene = true;
    const dram::DeviceConfig cfg = mitConfig();

    for (const std::uint64_t trips :
         {std::uint64_t(1), std::uint64_t(2), std::uint64_t(17)}) {
        Program looped;
        appendDoubleSided(looped, 10, trips, /*ref_in_loop=*/true);

        Program unrolled;
        for (std::uint64_t i = 0; i < trips; ++i) {
            unrolled.act(0, 9, kT.tRFC)
                .pre(0, kT.tRAS)
                .act(0, 11, kT.tRC)
                .pre(0, kT.tRAS)
                .ref(kT.tRC)
                .nop(kT.tRFC);
        }

        const Analysis al = analyze(looped, cfg, spec);
        const Analysis au = analyze(unrolled, cfg, spec);

        ASSERT_EQ(al.report.victims.size(), au.report.victims.size())
            << "trips=" << trips;
        for (std::size_t i = 0; i < al.report.victims.size(); ++i) {
            const VictimPrediction &vl = al.report.victims[i];
            const VictimPrediction &vu = au.report.victims[i];
            EXPECT_EQ(vl.victimPhys, vu.victimPhys) << "trips=" << trips;
            EXPECT_EQ(vl.mitVerdict, vu.mitVerdict)
                << "trips=" << trips << " row=" << vl.victimPhys;
            EXPECT_DOUBLE_EQ(vl.optimisticDamage, vu.optimisticDamage)
                << "trips=" << trips << " row=" << vl.victimPhys;
            EXPECT_DOUBLE_EQ(vl.bypassHcFirstLowerBound,
                             vu.bypassHcFirstLowerBound)
                << "trips=" << trips << " row=" << vl.victimPhys;
        }
    }
}

// ---- PRAC --------------------------------------------------------------

TEST(MitAbsint, PracAdjacentOnlyCertifiesMitigated)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.prac = true;
    spec.pracConfig.rdt = 20;
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->verdict, Verdict::Likely);
    EXPECT_EQ(v->mitVerdict, MitVerdict::MitigatedCertain);
    EXPECT_TRUE(has(a.result, Code::MitMitigatedCertain));
    EXPECT_NE(messageOf(a.result, Code::MitMitigatedCertain)
                  .find("PRAC"),
              std::string::npos);
}

TEST(MitAbsint, PracDistance2AggressorBlocksCertification)
{
    // A same-subarray distance-2 aggressor deposits damage on the
    // victim but its drain refreshes (row +-1) never reach it: no
    // trigger-driven MitigatedCertain is possible.
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    appendSingleSided(p, 12, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.prac = true;
    spec.pracConfig.rdt = 20;
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::BypassPossible);
}

TEST(MitAbsint, PracHighRdtCertifiesBypassAndFlagsSkirting)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.prac = true;
    spec.pracConfig.rdt = 20000;  // never reached: 600 closes per row
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::BypassCertain);
    EXPECT_TRUE(has(a.result, Code::MitBypassCertain));
    // Emitted once per program, not per victim.
    EXPECT_EQ(countCode(a.result, Code::MitAboThresholdSkirted), 1u);
}

TEST(MitAbsint, PracMultiVictimRfmIsJudgedConservatively)
{
    // Quiet adjacent cluster (80 closes/row, below the 200 RDT) next
    // to a far hot cluster.  With victimsPerRfm == 1 only >=RDT rows
    // can ever be drained, all of which are far: certain bypass.  With
    // victimsPerRfm > 1 the second drained row can be *any* non-zero
    // counter -- the quiet adjacent aggressors become drainable and
    // the certain bypass must be withdrawn.
    Program p;
    appendDoubleSided(p, 10, 80, /*ref_in_loop=*/false);
    appendDoubleSided(p, 40, 400, /*ref_in_loop=*/false);

    MitigationSpec spec;
    spec.prac = true;
    spec.pracConfig.rdt = 200;

    spec.pracConfig.victimsPerRfm = 1;
    const Analysis one = analyze(p, mitConfig(), spec);
    const VictimPrediction *v1 = victimAt(one.report, 10);
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->mitVerdict, MitVerdict::BypassCertain);

    spec.pracConfig.victimsPerRfm = 2;
    const Analysis two = analyze(p, mitConfig(), spec);
    const VictimPrediction *v2 = victimAt(two.report, 10);
    ASSERT_NE(v2, nullptr);
    EXPECT_NE(v2->mitVerdict, MitVerdict::BypassCertain);
}

// ---- PARA / Graphene ---------------------------------------------------

TEST(MitAbsint, ParaVerdictsFollowTheCoin)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);

    MitigationSpec spec;
    spec.para = true;
    spec.paraConfig.probability = 0.0;
    const Analysis off = analyze(p, mitConfig(), spec);
    const VictimPrediction *voff = victimAt(off.report, 10);
    ASSERT_NE(voff, nullptr);
    EXPECT_EQ(voff->mitVerdict, MitVerdict::BypassCertain);

    spec.paraConfig.probability = 1.0 / 512.0;
    const Analysis on = analyze(p, mitConfig(), spec);
    const VictimPrediction *von = victimAt(on.report, 10);
    ASSERT_NE(von, nullptr);
    // A Bernoulli mitigation can always miss every draw: neither
    // Certain verdict is available, and the refusal quantifies it.
    EXPECT_EQ(von->mitVerdict, MitVerdict::BypassPossible);
    EXPECT_NE(messageOf(on.result, Code::MitBypassPossible)
                  .find("miss probability"),
              std::string::npos);
}

TEST(MitAbsint, GrapheneUnderThresholdCertifiesBypass)
{
    Program p;
    appendDoubleSided(p, 10, 100, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.graphene = true;  // threshold 250 > 100 closes per row
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::BypassCertain);
}

TEST(MitAbsint, GrapheneAdjacentCertifiesMitigatedWhenBoundHolds)
{
    // Stronger anchors so threshold * per-close damage < 1: within
    // every 250 closes the exactly-counting table provably triggers
    // and refreshes the victim before the accrual can cross.
    dram::DeviceConfig cfg = mitConfig();
    cfg.profile.rhMin = 2000;
    cfg.profile.rhAvg = 4500;

    Program p;
    appendDoubleSided(p, 10, 400, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.graphene = true;
    const Analysis a = analyze(p, cfg, spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::MitigatedCertain);
}

TEST(MitAbsint, CombinedVerdictOneCertainMitigationWins)
{
    // REF-free: TRR alone certifies a bypass.  PRAC with a small RDT
    // certifies mitigation.  One certain mitigation stops the flips,
    // so the combined verdict is MitigatedCertain.
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.trr = true;
    spec.prac = true;
    spec.pracConfig.rdt = 20;
    const Analysis a = analyze(p, mitConfig(), spec);

    const VictimPrediction *v = victimAt(a.report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::MitigatedCertain);
}

TEST(MitAbsint, SpecOffLeavesVictimsNotEvaluated)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    LintOptions opts;
    opts.effects = true;
    EffectReport report;
    lintProgram(p, mitConfig(), opts, &report);
    const VictimPrediction *v = victimAt(report, 10);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mitVerdict, MitVerdict::NotEvaluated);
}

// ---- SARIF goldens -----------------------------------------------------

std::string
renderSarif(const LintResult &r, const Program &p)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    printSarif(r, p, f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

TEST(MitAbsint, SarifGoldenForEveryMitCode)
{
    const Code codes[] = {
        Code::MitBypassCertain,     Code::MitBypassPossible,
        Code::MitMitigatedCertain,  Code::MitTrrSamplerStarved,
        Code::MitAboThresholdSkirted,
    };
    LintResult r;
    for (Code c : codes)
        r.diags.push_back({c, severityOf(c), 0, "synthetic"});
    Program p;
    p.nop(10);

    const std::string out = renderSarif(r, p);
    for (Code c : codes) {
        EXPECT_NE(out.find(std::string("\"id\":\"") + name(c) + "\""),
                  std::string::npos)
            << name(c);
        EXPECT_TRUE(isMitigationCode(c)) << name(c);
    }
    EXPECT_NE(out.find("\"id\":\"mit-bypass-certain\""),
              std::string::npos);
    EXPECT_NE(out.find("\"id\":\"mit-abo-threshold-skirted\""),
              std::string::npos);
    // mit-mitigated-certain is the lattice's good news: a note, not a
    // warning; every other Mit* code is warning-severity.
    EXPECT_EQ(severityOf(Code::MitMitigatedCertain), Severity::Note);
    for (Code c : {Code::MitBypassCertain, Code::MitBypassPossible,
                   Code::MitTrrSamplerStarved,
                   Code::MitAboThresholdSkirted})
        EXPECT_EQ(severityOf(c), Severity::Warning) << name(c);
}

TEST(MitAbsint, SarifEndToEndCarriesTheBypassResult)
{
    Program p;
    appendDoubleSided(p, 10, 600, /*ref_in_loop=*/false);
    MitigationSpec spec;
    spec.trr = true;
    const Analysis a = analyze(p, mitConfig(), spec);
    const std::string out = renderSarif(a.result, p);
    EXPECT_NE(out.find("\"ruleId\":\"mit-bypass-certain\""),
              std::string::npos);
    EXPECT_NE(out.find("\"level\":\"warning\""), std::string::npos);
}

} // namespace
