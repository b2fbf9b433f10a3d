#include "fuzz/campaign.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <unordered_set>

#include "bender/host.h"
#include "exec/pool.h"
#include "fuzz/measure.h"
#include "fuzz/minimize.h"
#include "hammer/hcfirst.h"
#include "hammer/tester.h"
#include "lint/absint.h"
#include "lint/effects.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace pud::fuzz {

namespace {

constexpr std::uint64_t kNoFlip = hammer::kNoFlip;

void
bumpCounter(const char *name, std::uint64_t by = 1)
{
    if (by == 0)
        return;
    if (obs::metricsOn()) [[unlikely]]
        obs::metrics().add(obs::metrics().counterId(name), by);
}

/** One candidate's measurement, writing the slot-addressed result. */
void
measureCandidate(bender::TestBench &bench,
                 const dram::DeviceConfig &dcfg,
                 const CampaignConfig &cfg, const Candidate &c,
                 RowId victim, CandidateResult &out)
{
    const BuiltPattern built = buildPattern(c, 0, victim, 1, dcfg);
    out.actsPerPeriod = built.actsPerPeriod;

    if (cfg.staticFilter) {
        // Optimistic static reachability: if even a worst-case weak
        // cell stays below the flip threshold at the full budget, the
        // search is guaranteed to burn its budget and report no-flip.
        const lint::ProgramEffects fx = lint::summarizeEffects(
            built.program.withLoopCount(0, cfg.maxPeriods), dcfg);
        const lint::EffectReport rep = lint::predictEffects(fx, dcfg);
        if (!rep.anyLikely) {
            out.status = Status::StaticSkip;
            bumpCounter("fuzz.static_skips");
            return;
        }
    }

    bumpCounter("fuzz.executed");
    const std::uint64_t hc =
        measureBuiltHc(bench, built, victim, cfg.maxPeriods);
    if (hc == kNoFlip) {
        out.status = Status::NoFlip;
        return;
    }
    out.status = Status::Effective;
    out.hcPeriods = hc;
    out.hcActs = hc * built.actsPerPeriod;
    bumpCounter("fuzz.effective");
}

/**
 * Total-ACT cost of the hand-built combinedPattern (Fig. 20/21) for
 * the campaign's victim: CoMRA and SiMRA-4 pre-phases at half their
 * standalone HC_first each, then the RowHammer phase measured by
 * combinedRh.  Returns 0 when any phase fails to flip.
 */
std::uint64_t
measureBaseline(const dram::DeviceConfig &dcfg, RowId victim)
{
    hammer::ModuleTester tester(dcfg);
    hammer::ModuleTester::Options opt;

    const std::uint64_t hc_comra = tester.comraDouble(victim, opt);
    const std::uint64_t hc_simra = tester.simraDouble(victim, 4, opt);
    if (hc_comra == kNoFlip || hc_simra == kNoFlip)
        return 0;

    hammer::ModuleTester::CombinedSpec spec;
    spec.comraFraction = 0.5;
    spec.simraFraction = 0.5;
    spec.simraN = 4;
    const std::uint64_t n_rh = tester.combinedRh(victim, spec, opt);
    if (n_rh == kNoFlip)
        return 0;

    // Same rounding as combinedRh's phase counts; every phase op
    // issues two ACTs (copy cycle, group open, double-sided round).
    const auto comra_cycles = static_cast<std::uint64_t>(
        spec.comraFraction * static_cast<double>(hc_comra));
    const auto simra_cycles = static_cast<std::uint64_t>(
        spec.simraFraction * static_cast<double>(hc_simra));
    return 2 * comra_cycles + 2 * simra_cycles + 2 * n_rh;
}

} // namespace

const char *
statusName(Status s)
{
    switch (s) {
      case Status::StaticSkip:
        return "static_skip";
      case Status::NoFlip:
        return "no_flip";
      case Status::Effective:
        return "effective";
    }
    return "?";
}

RowId
campaignVictim(dram::RowId rowsPerSubarray)
{
    // Mid-subarray, aligned to victim % 16 == 1 so SiMRA groups up to
    // N=8 sandwich it (buildPattern's contract).
    return ((rowsPerSubarray / 2) & ~RowId(15)) | 1;
}

dram::DeviceConfig
campaignDeviceConfig(const CampaignConfig &cfg)
{
    dram::DeviceConfig dcfg = dram::makeConfig(cfg.moduleId, cfg.seed);
    dcfg.banks = 1;
    dcfg.subarraysPerBank = cfg.subarraysPerBank;
    dcfg.rowsPerSubarray = cfg.rowsPerSubarray;
    dcfg.cols = 64;
    // buildPattern emits physical rows directly.
    dcfg.profile.mapping = dram::MappingScheme::Sequential;
    return dcfg;
}

std::uint64_t
measureBuiltHc(bender::TestBench &bench, const BuiltPattern &built,
               RowId victim, std::uint64_t max_periods,
               std::uint64_t *probes)
{
    dram::Device &dev = bench.device();
    const dram::RowData aggr_data(dev.config().cols,
                                  dram::DataPattern::P55);
    const dram::RowData victim_data(
        dev.config().cols, dram::negate(dram::DataPattern::P55));

    // Identical silicon for every candidate: reset to the config
    // seed (cheap arena reuse; the executor keeps its last shape).
    bench.reset(dev.config().seed);

    const auto trial = [&](std::uint64_t n) {
        if (probes != nullptr)
            ++*probes;
        for (RowId a : built.aggressors)
            dev.writeRowDirect(0, a, aggr_data);
        dev.writeRowDirect(0, victim, victim_data);
        bench.run(built.program.withLoopCount(0, n));
        return bench.countBitflips(0, victim, victim_data) > 0;
    };

    // Cheap reject: one probe at the full budget costs about half of
    // what the exponential ramp would spend discovering no-flip.
    if (!trial(max_periods))
        return kNoFlip;

    hammer::HcSearchConfig scfg;
    scfg.maxHammers = max_periods;
    scfg.rampStart = 64;
    return hammer::findHcFirst(scfg, trial);
}

CampaignResult
runCampaign(const CampaignConfig &cfg)
{
    if (cfg.candidates == 0)
        fatal("fuzz: campaign needs candidates >= 1");
    if (cfg.chunk == 0)
        fatal("fuzz: campaign chunk must be >= 1");
    if (cfg.maxPeriods == 0)
        fatal("fuzz: campaign needs maxPeriods >= 1");

    CampaignResult r;
    r.cfg = cfg;
    r.generated = cfg.candidates;

    // ---- 1. generate + dedup (serial: corpus order is canonical) ----
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg.candidates, 1u << 22)));
    for (std::uint64_t i = 0; i < cfg.candidates; ++i) {
        Candidate c = generateCandidate(cfg.seed, i);
        const std::uint64_t h = shapeHash(c);
        if (!seen.insert(h).second) {
            ++r.dedupHits;
            continue;
        }
        CandidateResult cr;
        cr.index = i;
        cr.hash = h;
        r.results.push_back(cr);
        r.corpus.push_back(std::move(c));
    }
    bumpCounter("fuzz.candidates", r.generated);
    bumpCounter("fuzz.dedup_hits", r.dedupHits);

    // ---- 2. execute: fixed-size chunks onto the pool ----------------
    const dram::DeviceConfig dcfg = campaignDeviceConfig(cfg);
    const RowId victim = campaignVictim(cfg.rowsPerSubarray);
    const std::size_t chunks =
        (r.corpus.size() + cfg.chunk - 1) / cfg.chunk;
    exec::parallelFor(cfg.jobs, chunks, [&](std::size_t chunk_i) {
        // One bench per chunk, the pool's work unit.
        bender::TestBench bench(dcfg);
        bench.executor().setPreflight(false);
        const std::size_t begin = chunk_i * cfg.chunk;
        const std::size_t end =
            std::min(begin + cfg.chunk, r.corpus.size());
        for (std::size_t i = begin; i < end; ++i)
            measureCandidate(bench, dcfg, cfg, r.corpus[i], victim,
                             r.results[i]);
    });

    for (std::size_t i = 0; i < r.results.size(); ++i) {
        const CandidateResult &cr = r.results[i];
        r.staticSkips += cr.status == Status::StaticSkip;
        r.executed += cr.status != Status::StaticSkip;
        if (cr.status != Status::Effective)
            continue;
        ++r.effective;
        if (r.bestIdx == static_cast<std::size_t>(-1) ||
            cr.hcActs < r.results[r.bestIdx].hcActs)
            r.bestIdx = i;
    }

    // ---- 3. hand-built baseline -------------------------------------
    if (cfg.baseline)
        r.baselineActs = measureBaseline(dcfg, victim);

    // ---- 4. replay + minimize the cheapest effective patterns -------
    if (cfg.minimizeTop > 0 && r.effective > 0) {
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < r.results.size(); ++i)
            if (r.results[i].status == Status::Effective)
                order.push_back(i);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (r.results[a].hcActs != r.results[b].hcActs)
                          return r.results[a].hcActs <
                                 r.results[b].hcActs;
                      return a < b;
                  });
        const std::size_t top = std::min<std::size_t>(
            order.size(), static_cast<std::size_t>(cfg.minimizeTop));
        bender::TestBench bench(dcfg);
        bench.executor().setPreflight(false);
        for (std::size_t k = 0; k < top; ++k) {
            r.minimized.push_back(
                minimizePattern(bench, dcfg, r.corpus[order[k]],
                                victim, cfg.maxPeriods, order[k]));
            bumpCounter("fuzz.minimizer_probes",
                        r.minimized.back().probes);
        }
    }
    return r;
}

void
writeCorpusJsonl(const CampaignResult &r, std::ostream &os)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"schema\":\"pud-fuzz-corpus-v1\",\"module\":"
                  "\"%s\",\"seed\":%" PRIu64 ",\"candidates\":%" PRIu64
                  ",\"unique\":%zu,\"dedup_hits\":%" PRIu64
                  ",\"max_periods\":%" PRIu64 ",\"baseline_acts\":%" PRIu64
                  "}\n",
                  r.cfg.moduleId.c_str(), r.cfg.seed, r.generated,
                  r.corpus.size(), r.dedupHits, r.cfg.maxPeriods,
                  r.baselineActs);
    os << buf;
    for (std::size_t i = 0; i < r.corpus.size(); ++i) {
        const CandidateResult &cr = r.results[i];
        os << toJsonl(r.corpus[i], cr.index, cr.hash,
                      statusName(cr.status), cr.actsPerPeriod,
                      cr.hcPeriods, cr.hcActs)
           << "\n";
    }
}

namespace {

std::string
describeCandidate(const Candidate &c)
{
    char buf[128];
    std::string s;
    std::snprintf(buf, sizeof buf,
                  "%u tREFI x %u slots, ref_sync=%s, %zu components:",
                  c.trefis, c.slotsPerTrefi,
                  c.refSync ? "yes" : "no", c.comps.size());
    s += buf;
    for (const Component &k : c.comps) {
        std::snprintf(
            buf, sizeof buf,
            "\n    %-9s phase %2u stride %2u off (%d,%d) simraN %u "
            "timing %u",
            techName(k.tech), k.phase, k.stride, k.offLo, k.offHi,
            k.simraN, k.timingSel);
        s += buf;
    }
    return s;
}

} // namespace

std::string
summarize(const CampaignResult &r)
{
    char buf[256];
    std::string s;
    std::snprintf(buf, sizeof buf,
                  "=== pud::fuzz campaign: %s seed %" PRIu64
                  " ===\n"
                  "candidates %" PRIu64 " (unique %zu, dedup hits %" PRIu64
                  ")\n"
                  "static-skipped %" PRIu64 "  executed %" PRIu64
                  "  effective %" PRIu64 "\n",
                  r.cfg.moduleId.c_str(), r.cfg.seed, r.generated,
                  r.corpus.size(), r.dedupHits, r.staticSkips,
                  r.executed, r.effective);
    s += buf;

    if (r.baselineActs > 0) {
        std::snprintf(buf, sizeof buf,
                      "hand-built combinedPattern baseline: %" PRIu64
                      " aggressor ACTs\n",
                      r.baselineActs);
        s += buf;
    } else {
        s += "hand-built combinedPattern baseline: not measured\n";
    }

    if (r.bestIdx != static_cast<std::size_t>(-1)) {
        const CandidateResult &b = r.results[r.bestIdx];
        std::snprintf(buf, sizeof buf,
                      "best pattern: corpus idx %" PRIu64
                      " hash 0x%016" PRIx64 "\n  hc %" PRIu64
                      " periods x %" PRIu64 " acts/period = %" PRIu64
                      " aggressor ACTs\n  ",
                      b.index, b.hash, b.hcPeriods, b.actsPerPeriod,
                      b.hcActs);
        s += buf;
        s += describeCandidate(r.corpus[r.bestIdx]);
        s += "\n";
        if (r.baselineActs > 0) {
            std::snprintf(
                buf, sizeof buf,
                "fuzzed best vs baseline: %" PRIu64 " vs %" PRIu64
                " ACTs (%s)\n",
                b.hcActs, r.baselineActs,
                b.hcActs <= r.baselineActs ? "fuzzer matched or beat "
                                             "the hand-built pattern"
                                           : "baseline still ahead");
            s += buf;
        }
    } else {
        s += "best pattern: none effective\n";
    }

    for (const MinimizedPattern &m : r.minimized) {
        std::snprintf(buf, sizeof buf,
                      "minimized corpus idx %" PRIu64
                      ": acts %" PRIu64 " -> %" PRIu64
                      ", aggressor rows %zu -> %zu (%" PRIu64
                      " probes)\n  ",
                      r.results[m.corpusIdx].index, m.originalActs,
                      m.minimizedActs, m.aggressorsBefore,
                      m.aggressorsAfter, m.probes);
        s += buf;
        s += describeCandidate(m.minimized);
        s += "\n  intensity sweep (stride scale -> total ACTs):";
        for (const auto &[scale, acts] : m.intensitySweep) {
            if (acts == kNoFlip)
                std::snprintf(buf, sizeof buf, " %dx:no-flip", scale);
            else
                std::snprintf(buf, sizeof buf, " %dx:%" PRIu64, scale,
                              acts);
            s += buf;
        }
        s += "\n";
    }
    return s;
}

} // namespace pud::fuzz
