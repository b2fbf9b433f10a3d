#include "check/diffcheck.h"

#include <cstdio>
#include <optional>
#include <vector>

#include "bender/host.h"
#include "lint/dataflow.h"
#include "lint/linter.h"
#include "mitigation/countermeasures.h"
#include "util/rng.h"
#include "util/units.h"

namespace pud::check {

namespace {

using bender::Program;
using dram::BankId;
using dram::ColId;
using dram::RowData;
using dram::RowId;
using dram::SubarrayId;
using lint::DataflowResult;
using lint::MergeInput;
using lint::MergeRecord;
using lint::RowState;
using lint::RowStateKind;

/** The whole bench lives in one bank; see the header comment. */
constexpr dram::BankId kBank = 0;

/** Recursive-resolution guard for pathological merge nests. */
constexpr int kResolveDepthCap = 8;

dram::DeviceConfig
benchConfig(std::uint64_t seed)
{
    dram::DeviceConfig cfg = dram::makeConfig("HMA81GU7AFR8N-UH", seed);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 64;
    // No weak cells: disturbance cannot blur data-movement semantics.
    cfg.weakCellsPerRow = 0;
    cfg.profile.mapping = dram::MappingScheme::Sequential;
    return cfg;
}

RowData
randomRow(Rng &rng, ColId cols)
{
    RowData d(cols);
    for (ColId c = 0; c < cols; ++c)
        d.set(c, rng.chance(0.5));
    return d;
}

/**
 * Seeded program generator over the PuD idiom menu.  Every snippet is
 * protocol-clean in isolation and leaves the bank precharged, so any
 * concatenation is lint-clean (the executor pre-flight enforces it).
 */
class Generator
{
  public:
    Generator(Rng &rng, const dram::DeviceConfig &cfg)
        : rng_(rng), cfg_(cfg), t_(cfg.timings)
    {}

    Program
    build()
    {
        const int snippets = static_cast<int>(rng_.range(4, 9));
        for (int i = 0; i < snippets; ++i) {
            switch (rng_.below(9)) {
              case 0: writeRowSnippet(); break;
              case 1: copySnippet(); break;
              case 2: groupWriteSnippet(); break;
              case 3: majoritySnippet(/*tie_free=*/true); break;
              case 4: majoritySnippet(/*tie_free=*/false); break;
              case 5: trngSnippet(); break;
              case 6: readSnippet(); break;
              case 7: hammerSnippet(); break;
              case 8: loopedCopySnippet(); break;
            }
        }
        return std::move(p_);
    }

  private:
    RowId rps() const { return cfg_.rowsPerSubarray; }

    SubarrayId
    randSub()
    {
        return static_cast<SubarrayId>(
            rng_.below(static_cast<std::uint64_t>(
                cfg_.subarraysPerBank)));
    }

    RowId
    randRowIn(SubarrayId sub)
    {
        return sub * rps() +
               static_cast<RowId>(
                   rng_.below(static_cast<std::uint64_t>(rps())));
    }

    RowId randRow() { return randRowIn(randSub()); }

    /** A fresh or (sometimes) reused data-table entry. */
    int
    randData()
    {
        if (!dataIndices_.empty() && rng_.chance(0.3))
            return dataIndices_[rng_.below(dataIndices_.size())];
        const int idx = p_.addData(randomRow(rng_, cfg_.cols));
        dataIndices_.push_back(idx);
        return idx;
    }

    /** Full-restore open of src, reopen of dst in the CoMRA window. */
    void
    comra(RowId src, RowId dst)
    {
        p_.act(kBank, src, t_.tRC)
            .pre(kBank, t_.tRAS)
            .act(kBank, dst, units::fromNs(7.5))
            .pre(kBank, t_.tRAS);
    }

    /** ACT r1, early PRE, early ACT r2: opens the SiMRA group. */
    void
    simraOpen(RowId r1, RowId r2)
    {
        p_.act(kBank, r1, t_.tRC)
            .pre(kBank, units::fromNs(3))
            .act(kBank, r2, units::fromNs(3));
    }

    void
    writeRowSnippet()
    {
        p_.act(kBank, randRow(), t_.tRC)
            .wr(kBank, randData(), t_.tRCD)
            .pre(kBank, t_.tRAS);
    }

    void
    copySnippet()
    {
        const SubarrayId sub = randSub();
        const RowId src = randRowIn(sub);
        RowId dst = randRowIn(sub);
        if (dst == src)
            dst = sub * rps() + (src - sub * rps() + 1) % rps();
        comra(src, dst);
    }

    /** Aligned n-row decoder block in sub: [base, base + n). */
    RowId
    randBlock(SubarrayId sub, RowId n)
    {
        return sub * rps() +
               n * static_cast<RowId>(rng_.below(
                       static_cast<std::uint64_t>(rps() / n)));
    }

    void
    groupWriteSnippet()
    {
        static constexpr RowId kSizes[] = {2, 4, 8};
        const RowId n = kSizes[rng_.below(3)];
        const RowId base = randBlock(randSub(), n);
        simraOpen(base, base + n - 1);
        p_.wr(kBank, randData(), t_.tRCD).pre(kBank, t_.tRAS);
    }

    /**
     * Replicated MAJ over an 8-row group: operands staged from outside
     * the block with weights (3,3,2) (tie-free) or (4,4) (tie-able;
     * the checker skips verifying those rows).
     */
    void
    majoritySnippet(bool tie_free)
    {
        const SubarrayId sub = randSub();
        const RowId base = randBlock(sub, 8);
        const std::vector<int> weights =
            tie_free ? std::vector<int>{3, 3, 2}
                     : std::vector<int>{4, 4};
        RowId off = 0;
        for (const int w : weights) {
            RowId operand = randRowIn(sub);
            while (operand >= base && operand < base + 8)
                operand = randRowIn(sub);
            for (int i = 0; i < w; ++i)
                comra(operand, base + off++);
        }
        simraOpen(base, base + 7);
        p_.pre(kBank, t_.tRAS);
    }

    /** QUAC-TRNG: merge an unstaged block, read the entropy out. */
    void
    trngSnippet()
    {
        const RowId base = randBlock(randSub(), 8);
        simraOpen(base, base + 7);
        p_.rd(kBank, t_.tRCD).pre(kBank, t_.tRAS);
    }

    void
    readSnippet()
    {
        p_.act(kBank, randRow(), t_.tRC)
            .rd(kBank, t_.tRCD)
            .pre(kBank, t_.tRAS);
    }

    void
    hammerSnippet()
    {
        p_.loopBegin(static_cast<std::uint64_t>(rng_.range(50, 300)))
            .act(kBank, randRow(), t_.tRC)
            .pre(kBank, t_.tRAS)
            .loopEnd();
    }

    /** Copy under a loop: trips straddle the dataflow pass cap. */
    void
    loopedCopySnippet()
    {
        static constexpr std::uint64_t kTrips[] = {1, 2, 3, 17};
        const SubarrayId sub = randSub();
        const RowId src = randRowIn(sub);
        RowId dst = randRowIn(sub);
        if (dst == src)
            dst = sub * rps() + (src - sub * rps() + 1) % rps();
        p_.loopBegin(kTrips[rng_.below(4)]);
        comra(src, dst);
        p_.loopEnd();
    }

    Rng &rng_;
    const dram::DeviceConfig &cfg_;
    const dram::TimingParams &t_;
    Program p_;
    std::vector<int> dataIndices_;
};

/**
 * Resolve an abstract row value to concrete bits, or nullopt when the
 * analysis makes no bit-exact claim (ChargeShared, Clobbered, Unknown,
 * tie-able merges).  `initial` is the pre-program contents snapshot;
 * CopyOf refers to it by construction (copy chains resolve to their
 * original source, and sources overwritten *later* do not retroact).
 */
std::optional<RowData>
resolveValue(const RowState &st, const DataflowResult &df,
             const Program &program, const std::vector<RowData> &initial,
             int depth)
{
    if (depth > kResolveDepthCap)
        return std::nullopt;
    switch (st.kind) {
      case RowStateKind::Written:
        return program.dataTable()[static_cast<std::size_t>(
            st.dataIndex)];
      case RowStateKind::CopyOf:
        return initial[static_cast<std::size_t>(st.srcKey &
                                                0xffffffffULL)];
      case RowStateKind::MajorityOf: {
        const MergeRecord &m =
            df.merges[static_cast<std::size_t>(st.mergeId)];
        if (m.tieable)
            return std::nullopt;
        // The device's bitline rule over the inputs repeated by
        // weight (the weights sum to groupSize); a tie-free merge
        // never reaches the kernel's tie branch.
        std::vector<RowData> values;
        values.reserve(m.inputs.size());
        std::vector<const RowData *> votes;
        for (const MergeInput &in : m.inputs) {
            std::optional<RowData> v = resolveValue(
                in.value, df, program, initial, depth + 1);
            if (!v)
                return std::nullopt;
            values.push_back(std::move(*v));
            votes.insert(votes.end(),
                         static_cast<std::size_t>(in.weight),
                         &values.back());
        }
        RowData out(initial.front().bits());
        out.assignMajority(votes);
        return out;
      }
      case RowStateKind::Initial:
        // Canonicalized to CopyOf(self) everywhere a value escapes;
        // seeing it here would be a dataflow bug -- refuse the claim.
        return std::nullopt;
      case RowStateKind::ChargeShared:
      case RowStateKind::Clobbered:
      case RowStateKind::Unknown:
        return std::nullopt;
    }
    return std::nullopt;
}

void
recordMismatch(DiffCheckStats &stats, std::uint64_t seed, RowId phys,
               const RowState *st, std::size_t diff_bits)
{
    ++stats.mismatches;
    if (!stats.firstMismatch.empty())
        return;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "seed %llu: bank %u row %u: lint proves %s but the "
                  "device disagrees in %zu bit(s)",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned>(kBank),
                  static_cast<unsigned>(phys),
                  st ? lint::name(st->kind) : "initial", diff_bits);
    stats.firstMismatch = buf;
}

void
checkOneSeed(std::uint64_t seed, DiffCheckStats &stats)
{
    Rng rng(seed);
    dram::DeviceConfig cfg = benchConfig(seed);
    // Exercise the ignored-command path: unsupported chips leave the
    // first row open with its original activation time, on both the
    // device and the dataflow side.
    if (rng.chance(0.2))
        cfg.profile.supportsSimra = false;

    bender::TestBench bench(cfg);
    // The pre-flight is the lint-rejection half of the contract: the
    // generator promises lint-clean programs, and requireClean fatals
    // on any error-severity finding before the device sees it.
    bench.executor().setPreflight(true);

    const RowId rows = cfg.rowsPerBank();
    std::vector<RowData> initial;
    initial.reserve(static_cast<std::size_t>(rows));
    for (RowId r = 0; r < rows; ++r) {
        initial.push_back(randomRow(rng, cfg.cols));
        bench.writeRow(kBank, r, initial.back());
    }

    Generator gen(rng, cfg);
    const Program program = gen.build();
    bench.run(program);

    const DataflowResult df = lint::analyzeDataflow(program, cfg);

    ++stats.programs;
    stats.instructions += program.insts().size();
    stats.merges += df.merges.size();
    stats.loops += program.loopCount();

    for (RowId phys = 0; phys < rows; ++phys) {
        const RowState *st = df.find(kBank, phys);
        std::optional<RowData> expect;
        if (st == nullptr || st->kind == RowStateKind::Initial)
            expect = initial[static_cast<std::size_t>(phys)];
        else
            expect = resolveValue(*st, df, program, initial, 0);
        if (!expect) {
            ++stats.rowsUnverifiable;
            continue;
        }
        const RowData got = bench.readRow(kBank, phys);
        if (got == *expect)
            ++stats.rowsVerified;
        else
            recordMismatch(stats, seed, phys, st,
                           got.diffCount(*expect));
    }
}

// ===================================================================
// Mitigation soundness mode (DiffCheckConfig::mitigation != None).
// ===================================================================

/**
 * Bench shape for the certifier mode: same tiny geometry as the
 * dataflow mode, but with weak cells present and the family threshold
 * anchors scaled down so a few hundred ACT/PRE cycles straddle the
 * flip threshold -- otherwise no generated program could ever flip a
 * bit and the Certain verdicts would be asserted against nothing.
 */
dram::DeviceConfig
mitigationBenchConfig(std::uint64_t seed)
{
    dram::DeviceConfig cfg = dram::makeConfig("HMA81GU7AFR8N-UH", seed);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 64;
    cfg.weakCellsPerRow = 4;
    cfg.profile.mapping = dram::MappingScheme::Sequential;
    // Down-scaled Table 2 anchors (same avg/min ratios as a real
    // family): HC_first ~ 400..900 closes for plain double-sided RH.
    cfg.profile.rhMin = 400;
    cfg.profile.rhAvg = 900;
    cfg.profile.comraMin = 160;
    cfg.profile.comraAvg = 360;
    cfg.profile.simraMin = 80;
    cfg.profile.simraAvg = 180;
    return cfg;
}

/**
 * Hammer-oriented program generator for the certifier mode.  Only
 * conventional ACT/PRE pressure (plus WR staging and REF) is emitted:
 * the per-close damage fold the certifier shares with the effect
 * predictor is anchored for those, and the point here is mitigation
 * interaction, not activation-mode coverage (the dataflow mode owns
 * that).  Program *shapes* are drawn so each mode's Certain verdicts
 * actually occur:
 *
 *  - a pure adjacent double-sided hammer with REF in the loop body
 *    keeps the TRR sampler window equal to {v-1, v+1}, certifying the
 *    victim mitigated;
 *  - a REF-free program never engages the sampler at all, certifying
 *    a TRR bypass;
 *  - a hammer cluster followed by a >= kTrrWindow-push decoy flood in
 *    the other subarray evicts the cluster from the ring before any
 *    REF arrives, certifying a *non-trivial* TRR bypass (the sampler
 *    fires, but provably only on far rows);
 *  - under PRAC, a below-threshold cluster next to a far hot cluster
 *    certifies a distance bypass (drains provably land far away), and
 *    an adjacent-only hammer under a small RDT certifies mitigation.
 */
class MitigationGenerator
{
  public:
    MitigationGenerator(Rng &rng, const dram::DeviceConfig &cfg,
                        MitigationUnderTest mode)
        : rng_(rng), cfg_(cfg), t_(cfg.timings), mode_(mode)
    {}

    Program
    build()
    {
        switch (rng_.below(4)) {
          case 0:
            // Adjacent-only double-sided pressure; REF interleaved in
            // the TRR mode so the sampler window stays pure.
            doubleSided(randVictim(randSub()),
                        rng_.range(100, 400),
                        /*ref_in_loop=*/mode_ == MitigationUnderTest::Trr);
            break;
          case 1:
            // REF-free pressure: TRR provably never samples.
            doubleSided(randVictim(randSub()), rng_.range(100, 1200),
                        /*ref_in_loop=*/false);
            if (rng_.chance(0.5))
                singleSided(randRowIn(randSub()), rng_.range(80, 600));
            break;
          case 2: {
            // Far-bypass shape: quiet cluster in subarray 0, loud
            // cluster in subarray 1, then REFs.  TRR: the flood evicts
            // the cluster from the ring.  PRAC: only the flood rows
            // can go hot / be drained.
            doubleSided(randVictim(0), rng_.range(60, 180),
                        /*ref_in_loop=*/false);
            doubleSided(randVictim(1), rng_.range(500, 700),
                        /*ref_in_loop=*/false);
            refBurst(rng_.range(2, 5));
            break;
          }
          default: {
            // Free composition: mostly-Possible territory plus the
            // starved/skirted diagnostics.
            const int snippets = static_cast<int>(rng_.range(2, 6));
            for (int i = 0; i < snippets; ++i) {
                switch (rng_.below(5)) {
                  case 0:
                    doubleSided(randVictim(randSub()),
                                rng_.range(60, 500), rng_.chance(0.3));
                    break;
                  case 1:
                    singleSided(randRowIn(randSub()),
                                rng_.range(60, 500));
                    break;
                  case 2: writeSnippet(); break;
                  case 3: refBurst(rng_.range(1, 4)); break;
                  default:
                    // Dilution pair: same-subarray distance-3 rows.
                    singleSided(randVictim(randSub()) - 2,
                                rng_.range(50, 200));
                    break;
                }
            }
            break;
          }
        }
        return std::move(p_);
    }

  private:
    RowId rps() const { return cfg_.rowsPerSubarray; }

    SubarrayId
    randSub()
    {
        return static_cast<SubarrayId>(
            rng_.below(static_cast<std::uint64_t>(
                cfg_.subarraysPerBank)));
    }

    RowId
    randRowIn(SubarrayId sub)
    {
        return sub * rps() +
               static_cast<RowId>(
                   rng_.below(static_cast<std::uint64_t>(rps())));
    }

    /** A victim with both neighbours and distance-2 rows in-subarray. */
    RowId
    randVictim(SubarrayId sub)
    {
        return sub * rps() + 2 +
               static_cast<RowId>(rng_.below(
                   static_cast<std::uint64_t>(rps() - 4)));
    }

    /**
     * Classic double-sided hammer around `victim`.  With `ref_in_loop`
     * every iteration ends in a REF (bank precharged, tRFC respected
     * before the next ACT), so the sampler window at every refresh
     * point is exactly {victim-1, victim+1}.
     */
    void
    doubleSided(RowId victim, std::uint64_t trips, bool ref_in_loop)
    {
        p_.loopBegin(trips)
            .act(kBank, victim - 1, t_.tRFC)
            .pre(kBank, t_.tRAS)
            .act(kBank, victim + 1, t_.tRC)
            .pre(kBank, t_.tRAS);
        if (ref_in_loop)
            p_.ref(t_.tRC).nop(t_.tRFC);
        p_.loopEnd();
    }

    void
    singleSided(RowId aggressor, std::uint64_t trips)
    {
        p_.loopBegin(trips)
            .act(kBank, aggressor, t_.tRFC)
            .pre(kBank, t_.tRAS)
            .loopEnd();
    }

    void
    writeSnippet()
    {
        const int idx = p_.addData(randomRow(rng_, cfg_.cols));
        p_.act(kBank, randRowIn(randSub()), t_.tRFC)
            .wr(kBank, idx, t_.tRCD)
            .pre(kBank, t_.tRAS);
    }

    /** REFs with the bank precharged; tRFC honoured on both sides. */
    void
    refBurst(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            p_.ref(t_.tRFC).nop(t_.tRFC);
    }

    Rng &rng_;
    const dram::DeviceConfig &cfg_;
    const dram::TimingParams &t_;
    MitigationUnderTest mode_;
    Program p_;
};

void
recordViolation(DiffCheckStats &stats, std::uint64_t seed, RowId phys,
                const char *what)
{
    ++stats.soundnessViolations;
    if (!stats.firstMismatch.empty())
        return;
    char buf[200];
    std::snprintf(buf, sizeof buf, "seed %llu: bank %u row %u: %s",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned>(kBank),
                  static_cast<unsigned>(phys), what);
    stats.firstMismatch = buf;
}

/**
 * One certifier-mode seed: lint the program with the mitigation pass
 * enabled, execute it on two benches that differ only in whether the
 * mitigation runs live, and hold every per-victim verdict to its
 * contract (see the header comment, clauses A-C).
 */
void
checkOneMitigationSeed(std::uint64_t seed, MitigationUnderTest mode,
                       DiffCheckStats &stats)
{
    Rng rng(seed);
    const dram::DeviceConfig cfg = mitigationBenchConfig(seed);

    lint::MitigationSpec spec;
    mitigation::PracConfig prac_cfg;
    if (mode == MitigationUnderTest::Trr) {
        spec.trr = true;
    } else {
        spec.prac = true;
        // Sweep the back-off threshold across the generator's close
        // budgets: 20 certifies adjacent hammers mitigated, 200 sits
        // at the refusal boundary, 20000 never alerts (bypass + the
        // threshold-skirted diagnostic).
        static constexpr std::uint64_t kRdt[] = {20, 200, 20000};
        prac_cfg.rdt = kRdt[rng.below(3)];
        spec.pracConfig = prac_cfg;
    }

    MitigationGenerator gen(rng, cfg, mode);
    const Program program = gen.build();

    // Static side: full per-victim report with the certifier verdicts.
    lint::LintOptions opts;
    opts.mitigations = spec;
    lint::EffectReport report;
    lint::lintProgram(program, cfg, opts, &report);

    // Execution side: `plain` never mitigates, `mit` runs the
    // mechanism under test live.  Same config, same seed, identical
    // initial data; the populations are drawn from a counter-based
    // stream, so the two devices are cell-for-cell identical.
    bender::TestBench plain(cfg);
    bender::TestBench mit(cfg);
    plain.executor().setPreflight(true);
    mit.executor().setPreflight(false);
    std::optional<mitigation::PracMitigation> prac_hook;
    if (mode == MitigationUnderTest::Trr) {
        mit.device().setTrrEnabled(true);
    } else {
        prac_hook.emplace(prac_cfg, cfg.banks, cfg.rowsPerBank(),
                          cfg.rowsPerSubarray);
        mit.device().setMitigation(&*prac_hook);
    }

    const RowId rows = cfg.rowsPerBank();
    std::vector<RowData> initial;
    initial.reserve(static_cast<std::size_t>(rows));
    for (RowId r = 0; r < rows; ++r) {
        initial.push_back(randomRow(rng, cfg.cols));
        plain.writeRow(kBank, r, initial.back());
        mit.writeRow(kBank, r, initial.back());
    }

    plain.run(program);
    mit.run(program);

    ++stats.programs;
    stats.instructions += program.insts().size();
    stats.loops += program.loopCount();

    for (const lint::VictimPrediction &vp : report.victims) {
        const RowData got_plain = plain.readRow(kBank, vp.victimPhys);
        const RowData got_mit = mit.readRow(kBank, vp.victimPhys);
        const RowData &init =
            initial[static_cast<std::size_t>(vp.victimPhys)];
        const std::size_t flips_plain = got_plain.diffCount(init);
        const std::size_t flips_mit = got_mit.diffCount(init);

        if (vp.verdict == lint::Verdict::Likely)
            ++stats.likelyVictims;
        if (flips_plain > 0)
            ++stats.flippedRows;

        // (A) The static reachability bound is mitigation-agnostic
        // (refreshes only ever reduce damage), so it binds both arms.
        if (vp.optimisticDamage < 1.0 && (flips_plain || flips_mit))
            recordViolation(stats, seed, vp.victimPhys,
                            "optimisticDamage < 1 but the row flipped");

        switch (vp.mitVerdict) {
          case lint::MitVerdict::MitigatedCertain:
            ++stats.mitigatedCertainRows;
            // (B) Provably below threshold at every instant: the
            // mitigated run must leave the row untouched.
            if (flips_mit > 0)
                recordViolation(
                    stats, seed, vp.victimPhys,
                    "MitMitigatedCertain row flipped under the live "
                    "mitigation");
            break;
          case lint::MitVerdict::BypassCertain:
            ++stats.bypassCertainRows;
            // (C) The mitigation provably never touches v-2..v+2, so
            // the victim's whole bit trajectory -- flips included --
            // must match the unmitigated arm.
            if (got_mit != got_plain)
                recordViolation(
                    stats, seed, vp.victimPhys,
                    "MitBypassCertain row diverges between mitigated "
                    "and unmitigated runs");
            break;
          case lint::MitVerdict::BypassPossible:
            ++stats.possibleRows;
            break;
          case lint::MitVerdict::NotEvaluated:
            break;
        }
    }
}

} // namespace

DiffCheckStats
runDiffCheck(const DiffCheckConfig &cfg)
{
    DiffCheckStats stats;
    for (std::uint64_t i = 0; i < cfg.seeds; ++i) {
        if (cfg.mitigation == MitigationUnderTest::None)
            checkOneSeed(cfg.firstSeed + i, stats);
        else
            checkOneMitigationSeed(cfg.firstSeed + i, cfg.mitigation,
                                   stats);
    }
    return stats;
}

} // namespace pud::check
