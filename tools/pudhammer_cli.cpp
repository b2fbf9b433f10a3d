/**
 * @file
 * pudhammer — command-line front-end over the characterization
 * library, for exploring simulated modules without writing C++.
 *
 *   pudhammer modules
 *       list the Table 2 module families
 *   pudhammer reveng   --module=ID [--seed=N]
 *       recover mapping scheme, subarray bounds, SiMRA support, TRR
 *   pudhammer hcfirst  --module=ID --technique=rh|comra|simra
 *                      [--n=4] [--victims=K] [--temp=C] [--seed=N]
 *                      [--pattern=0x55|0xAA|0x00|0xFF|wcdp] [--jobs=N]
 *       HC_first distribution for a victim population
 *   pudhammer attack   --module=ID --technique=rh|comra|simra
 *                      [--trr] [--hammers=N] [--seed=N]
 *       run the §7 bitflip-count experiment
 *   pudhammer lint     --program=NAME [--module=ID|--profile=ID]
 *                      [--hammers=N] [--effects] [--json|--sarif]
 *                      [--werror]
 *       statically analyze a canonical or demo test program
 *   pudhammer trace-summarize --trace=FILE
 *       fold a pud::obs JSONL trace into per-phase time/count tables
 *
 * All run commands also accept --trace=FILE (structured JSONL event
 * trace) and --metrics (deterministic counters on stdout at exit).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "check/diffcheck.h"
#include "exec/pool.h"
#include "fuzz/campaign.h"
#include "hammer/experiment.h"
#include "hammer/popsweep.h"
#include "hammer/reveng.h"
#include "lint/effects.h"
#include "lint/linter.h"
#include "lint/report.h"
#include "obs/obs.h"
#include "stats/summary.h"
#include "util/args.h"
#include "util/table.h"

using namespace pud;
using namespace pud::hammer;

namespace {

/** Split a comma-separated option value ("trr,prac") into entries. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? value.size() : comma;
        if (end > start)
            out.push_back(value.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

const char *
mitVerdictName(lint::MitVerdict v)
{
    switch (v) {
      case lint::MitVerdict::NotEvaluated:     return "-";
      case lint::MitVerdict::BypassCertain:    return "bypass-certain";
      case lint::MitVerdict::BypassPossible:   return "bypass-possible";
      case lint::MitVerdict::MitigatedCertain:
        return "mitigated-certain";
    }
    return "?";
}

int
cmdModules()
{
    Table table({"module", "mfr", "density", "die", "org", "#mods",
                 "#chips", "SiMRA"});
    for (const auto &f : dram::table2Families()) {
        table.addRow({f.moduleId, dram::name(f.mfr), f.density,
                      f.dieRev, f.org, Table::count(f.numModules),
                      Table::count(f.numChips),
                      f.supportsSimra ? "yes" : "no"});
    }
    table.print();
    return 0;
}

dram::DeviceConfig
configFrom(const Args &args)
{
    // --profile is the lint-facing alias: "lint this program as if it
    // ran on family X" reads better than --module there, but both
    // select the same Table 2 calibration profile everywhere.
    const std::string module =
        args.get("profile", args.get("module", "HMA81GU7AFR8N-UH"));
    dram::DeviceConfig cfg = dram::makeConfig(
        module, static_cast<std::uint64_t>(args.getInt("seed", 1)));
    cfg.rowsPerSubarray = static_cast<dram::RowId>(
        args.getInt("rows", 128));
    return cfg;
}

int
cmdReveng(const Args &args)
{
    ModuleTester tester(configFrom(args));
    std::printf("module          : %s\n",
                tester.device().config().profile.moduleId.c_str());
    std::printf("mapping scheme  : %s\n",
                dram::name(identifyMappingScheme(tester, 0)));
    const auto bounds = findSubarrayBoundaries(tester, 0);
    std::printf("subarrays       : %zu (first boundary at row %u)\n",
                bounds.size(),
                bounds.size() > 1 ? bounds[1]
                                  : tester.device().rowsPerBank());
    const auto group = discoverSimraGroup(
        tester, 0, tester.device().toLogical(64),
        tester.device().toLogical(70));
    std::printf("SiMRA support   : %s (ACT(64)-PRE-ACT(70) activates "
                "%zu rows)\n",
                group.size() > 1 ? "yes" : "no", group.size());
    std::printf("TRR (as shipped): %s\n",
                detectTrr(tester, 0) ? "present" : "not detected");
    tester.device().setTrrEnabled(true);
    std::printf("TRR (enabled)   : %s\n",
                detectTrr(tester, 0) ? "present" : "not detected");
    return 0;
}

/** Parse a --technique value (rh|comra|simra); fatal otherwise. */
TrrTechnique
parseTechnique(const std::string &technique)
{
    if (technique == "rh")
        return TrrTechnique::RowHammer;
    if (technique == "comra")
        return TrrTechnique::Comra;
    if (technique == "simra")
        return TrrTechnique::Simra;
    fatal("unknown --technique=%s (rh|comra|simra)", technique.c_str());
}

/** The double-sided HC_first measurement of `tech` (SiMRA-`n`). */
MeasureFn
measureFor(TrrTechnique tech, const ModuleTester::Options &opt, int n)
{
    if (tech == TrrTechnique::RowHammer)
        return [opt](ModuleTester &t, dram::RowId v) {
            return t.rhDouble(v, opt);
        };
    if (tech == TrrTechnique::Comra)
        return [opt](ModuleTester &t, dram::RowId v) {
            return t.comraDouble(v, opt);
        };
    return [opt, n](ModuleTester &t, dram::RowId v) {
        return t.simraDouble(v, n, opt);
    };
}

int
cmdHcFirst(const Args &args)
{
    const std::string technique = args.get("technique", "rh");
    const TrrTechnique tech = parseTechnique(technique);
    const int n = static_cast<int>(args.getInt("n", 4));
    const double temp = args.getDouble("temp", 80.0);

    ModuleTester::Options opt;
    const std::string pattern = args.get("pattern", "wcdp");
    if (pattern == "wcdp") {
        opt.searchWcdp = true;
    } else if (pattern == "0x55") {
        opt.pattern = dram::DataPattern::P55;
    } else if (pattern == "0xAA") {
        opt.pattern = dram::DataPattern::PAA;
    } else if (pattern == "0x00") {
        opt.pattern = dram::DataPattern::P00;
    } else if (pattern == "0xFF") {
        opt.pattern = dram::DataPattern::PFF;
    } else {
        fatal("unknown --pattern=%s", pattern.c_str());
    }

    const MeasureFn measure = measureFor(tech, opt, n);

    // Route through the population runner so the sweep parallelizes
    // under --jobs.  With jobs > 1 the victim list is cut into fixed
    // chunks (independent of the jobs value), so any --jobs=N output
    // matches any other --jobs=M > 1 bit for bit; --jobs=1 is the
    // legacy serial path on one tester.
    PopulationConfig pop;
    pop.moduleId = args.get("module", "HMA81GU7AFR8N-UH");
    pop.modules = 1;
    pop.victimsPerSubarray =
        static_cast<dram::RowId>(args.getInt("victims", 8));
    pop.oddOnly = tech == TrrTechnique::Simra;
    pop.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    pop.rowsPerSubarray =
        static_cast<dram::RowId>(args.getInt("rows", 128));
    pop.jobs = exec::resolveJobs(
        static_cast<int>(args.getInt("jobs", 1)));
    pop.perVictimChunks = pop.jobs > 1;
    pop.setup = [temp](ModuleTester &t) {
        t.bench().thermo().setTarget(temp);
    };

    const auto series = measurePopulation(pop, {measure});

    std::vector<double> hcs;
    std::size_t noflip = 0;
    for (double hc : series[0]) {
        if (std::isnan(hc))
            ++noflip;
        else
            hcs.push_back(hc);
    }

    const auto bs = stats::boxStats(hcs);
    std::printf("technique %s%s, %zu victims (%zu without flips in "
                "budget)\n",
                technique.c_str(),
                tech == TrrTechnique::Simra
                    ? ("-" + std::to_string(n)).c_str()
                    : "",
                series[0].size(), noflip);
    std::printf("HC_first min/q1/median/q3/max: %s\n",
                bs.str().c_str());
    return 0;
}

/**
 * Fleet-scale population sweep through the sketch pipeline, across
 * worker processes.  The stdout summary is built purely from the
 * canonical-order sketch merge, so it is byte-identical across
 * --workers values (0 = in-process sweepPopulation, the identity
 * reference), --jobs values, and interrupt/restart schedules;
 * wall-time and RSS go to stderr to keep stdout diffable.
 */
int
cmdPopsweep(const Args &args)
{
    const std::string technique = args.get("technique", "rh");
    const TrrTechnique tech = parseTechnique(technique);
    const int n = static_cast<int>(args.getInt("n", 4));
    const double temp = args.getDouble("temp", 80.0);

    ModuleTester::Options opt;
    opt.searchWcdp = false;
    opt.pattern = dram::DataPattern::P55;
    const MeasureFn measure = measureFor(tech, opt, n);

    PopulationConfig pop;
    pop.moduleId = args.get("module", "HMA81GU7AFR8N-UH");
    pop.modules = static_cast<int>(args.getInt("modules", 100));
    pop.victimsPerSubarray =
        static_cast<dram::RowId>(args.getInt("victims", 2));
    pop.oddOnly = tech == TrrTechnique::Simra;
    pop.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    pop.rowsPerSubarray =
        static_cast<dram::RowId>(args.getInt("rows", 128));
    pop.setup = [temp](ModuleTester &t) {
        t.bench().thermo().setTarget(temp);
    };

    const int workers = static_cast<int>(args.getInt("workers", 0));
    const int jobs = static_cast<int>(args.getInt("jobs", 1));
    const double alpha = args.getDouble("alpha", 0.01);
    const std::string dir = args.get("dir", "");

    SweepResult sweep;
    if (workers <= 0) {
        // In-process reference path (the byte-identity baseline the
        // multi-process runs are diffed against).
        pop.jobs = jobs;
        SweepOptions so;
        so.sketchAlpha = alpha;
        if (!dir.empty())
            so.checkpointPath = dir + "/single.ckpt";
        sweep = sweepPopulation(pop, {measure}, so);
        std::fprintf(stderr,
                     "# in-process: jobs=%d wall=%.2fs resumed=%zu\n",
                     exec::resolveJobs(jobs), sweep.telemetry.wallSeconds,
                     sweep.resumedShards);
    } else {
        if (dir.empty())
            fatal("popsweep: --dir=PATH is required with --workers>0");
        PopsweepOptions po;
        po.dir = dir;
        po.workers = workers;
        po.jobsPerWorker = jobs;
        po.sketchAlpha = alpha;
        po.stallTimeoutSeconds =
            args.getDouble("stall-timeout", 120.0);
        const PopsweepResult r = popsweep(pop, {measure}, po);
        sweep = std::move(r.sweep);
        for (const WorkerReport &w : r.workers)
            std::fprintf(stderr,
                         "# worker %d: shards [%zu, %zu) restarts=%d "
                         "rss=%llu wall=%.2fs resumed=%zu\n",
                         w.worker, w.shardBegin, w.shardEnd,
                         w.restarts,
                         static_cast<unsigned long long>(
                             w.peakRssBytes),
                         w.wallSeconds, w.resumedShards);
        std::fprintf(stderr,
                     "# aggregate rss=%llu wall=%.2fs workers=%d\n",
                     static_cast<unsigned long long>(
                         r.aggregateRssBytes),
                     sweep.telemetry.wallSeconds, workers);
    }

    std::printf("popsweep %s technique=%s%s modules=%d victims=%zu "
                "shards=%zu\n",
                pop.moduleId.c_str(), technique.c_str(),
                tech == TrrTechnique::Simra
                    ? ("-" + std::to_string(n)).c_str()
                    : "",
                pop.modules,
                populationVictims(pop).size(), sweep.totalShards);
    for (std::size_t i = 0; i < sweep.sketches.size(); ++i) {
        const stats::SampleSketch &sk = sweep.sketches[i];
        std::printf("measure %zu: count=%llu dropped=%llu\n", i,
                    static_cast<unsigned long long>(sk.count()),
                    static_cast<unsigned long long>(sk.dropped()));
        std::printf("  min=%.6g q25=%.6g median=%.6g q75=%.6g "
                    "max=%.6g mean=%.6g\n",
                    sk.min(), sk.quantile(0.25), sk.quantile(0.5),
                    sk.quantile(0.75), sk.max(), sk.mean());
        std::printf("  sum=%s buckets=%zu\n",
                    stats::hexDouble(sk.sum()).c_str(), sk.buckets());
    }
    return 0;
}

int
cmdAttack(const Args &args)
{
    const TrrTechnique tech =
        parseTechnique(args.get("technique", "simra"));

    TrrConfig cfg;
    cfg.nSided = static_cast<int>(args.getInt("n", 2));
    cfg.simraN = static_cast<int>(args.getInt("n", 16));
    cfg.hammersPerAggressor = static_cast<std::uint64_t>(
        args.getInt("hammers", 150000));

    ModuleTester tester(configFrom(args));
    const bool trr = args.has("trr");
    const auto flips = runTrrExperiment(tester, tech, cfg, trr);
    std::printf("%s attack, %llu hammers/aggressor, TRR %s: "
                "%llu bitflips\n",
                name(tech),
                static_cast<unsigned long long>(
                    cfg.hammersPerAggressor),
                trr ? "on" : "off",
                static_cast<unsigned long long>(flips));
    return 0;
}

/**
 * Build the named program for `lint`.  Canonical patterns use the
 * same geometry the characterization front-end uses (mid-subarray
 * physical rows, translated through the module's mapping); the demo-*
 * programs exhibit the bug classes the analyzer exists to catch.
 */
bender::Program
lintProgramByName(const std::string &name, const dram::DeviceConfig &cfg,
                  std::uint64_t hammers)
{
    const dram::RowMapping mapping(cfg.profile.mapping);
    // Physical rows in the middle of subarray 0: victim v (odd),
    // sandwiched by v-1 / v+1; the SiMRA pair (v-1, v-1 ^ 0b110)
    // bit-combines to a 4-row group (see planSimraDouble).
    const dram::RowId v = (cfg.rowsPerSubarray / 2) | 1;
    const dram::RowId lo = mapping.toLogical(v - 1);
    const dram::RowId hi = mapping.toLogical(v + 1);
    const dram::RowId simra2 = mapping.toLogical((v - 1) ^ 0b110);
    const PatternTimings t;
    const dram::TimingParams &nominal = t.base;

    if (name == "rh")
        return doubleSidedRowHammer(0, lo, hi, hammers, t);
    if (name == "comra")
        return comraHammer(0, lo, hi, hammers, t);
    if (name == "simra")
        return simraHammer(0, lo, simra2, hammers, t);
    if (name == "combined") {
        CombinedCounts counts;
        counts.comra = hammers / 4;
        counts.simra = hammers / 4;
        counts.rowHammer = hammers;
        return combinedPattern(0, lo, hi, lo, hi, lo, simra2, counts, t);
    }
    if (name == "trr-rh")
        return trrBypassPattern(0, {lo, hi}, mapping.toLogical(4), false,
                                hammers / 156 + 1, t);
    if (name == "trr-simra")
        return trrSimraPattern(0, lo, simra2, hammers / 78 + 1, t);

    if (name == "demo-unbalanced") {
        bender::Program p;
        p.loopBegin(hammers).act(0, lo, nominal.tRP).pre(0, nominal.tRAS);
        return p;  // missing loopEnd
    }
    if (name == "demo-bad-wr") {
        bender::Program p;
        p.act(0, lo, nominal.tRP)
            .wrUnchecked(0, 7, nominal.tRCD)  // empty data table
            .pre(0, nominal.tRAS);
        return p;
    }
    if (name == "demo-subtrp") {
        // A PRE->ACT gap between the CoMRA window (13.0 ns) and
        // nominal tRP (13.75 ns): violates tRP without copying --
        // exactly the accidental violation that corrupts sweeps.
        bender::Program p;
        p.act(0, lo, nominal.tRP)
            .pre(0, nominal.tRAS)
            .act(0, hi, units::fromNs(13.4))
            .pre(0, nominal.tRAS);
        return p;
    }
    // Shared snippet builders for the dataflow demos: a CoMRA copy and
    // a SiMRA group open, both in physical coordinates.
    const auto copyRow = [&](bender::Program &p, dram::RowId src,
                             dram::RowId dst) {
        p.act(0, mapping.toLogical(src), nominal.tRC)
            .pre(0, nominal.tRAS)
            .act(0, mapping.toLogical(dst), units::fromNs(7.5))
            .pre(0, nominal.tRAS);
    };
    const auto openGroup = [&](bender::Program &p, dram::RowId r1,
                               dram::RowId r2) {
        p.act(0, mapping.toLogical(r1), nominal.tRC)
            .pre(0, units::fromNs(3))
            .act(0, mapping.toLogical(r2), units::fromNs(3))
            .pre(0, nominal.tRAS);
    };
    if (name == "demo-ctrl-clobber") {
        // Pre-fix bitAnd/bitOr control-row bug: for an operand block
        // at the base of subarray 1 the control row was computed as
        // base-1 -- the *last row of subarray 0* -- so the control
        // fill landed across the boundary and the group activation one
        // subarray over could never consume it.
        bender::Program p;
        const dram::RowId base = cfg.rowsPerSubarray;
        const int zeros = p.addData(
            dram::RowData(cfg.cols, dram::DataPattern::P00));
        p.act(0, mapping.toLogical(base - 1), nominal.tRP)
            .wr(0, zeros, nominal.tRCD)
            .pre(0, nominal.tRAS);
        copyRow(p, base + 8, base + 0);
        copyRow(p, base + 9, base + 1);
        openGroup(p, base, base + 3);
        return p;
    }
    if (name == "demo-majority-geom") {
        // Pre-fix replicatedMajority geometry bugs: a replication that
        // does not sum to the group size leaves the block half-staged
        // (staged replicas merged with never-written rows), and an
        // operand placed inside its own activation block is swallowed
        // by the group open.
        bender::Program p;
        const dram::RowId half = 16;  // 8-row block, rows +6/+7 unstaged
        copyRow(p, 32, half + 0);
        copyRow(p, 32, half + 1);
        copyRow(p, 32, half + 2);
        copyRow(p, 33, half + 3);
        copyRow(p, 33, half + 4);
        copyRow(p, 33, half + 5);
        openGroup(p, half, half + 7);
        const dram::RowId swallowed = 40;  // operand at +1, in-block
        copyRow(p, swallowed + 1, swallowed + 0);
        copyRow(p, 48, swallowed + 2);
        copyRow(p, 48, swallowed + 3);
        openGroup(p, swallowed, swallowed + 3);
        return p;
    }
    if (name == "demo-broken") {
        // All three bug classes at once (the acceptance showcase).
        bender::Program p;
        p.act(0, lo, nominal.tRP)
            .pre(0, nominal.tRAS)
            .act(0, hi, units::fromNs(13.4))  // accidental sub-tRP
            .wrUnchecked(0, 7, nominal.tRCD)  // out-of-range data index
            .pre(0, nominal.tRAS)
            .loopBegin(hammers)               // never closed
            .act(0, lo, nominal.tRP)
            .pre(0, nominal.tRAS);
        return p;
    }
    fatal("unknown --program=%s (rh|comra|simra|combined|trr-rh|"
          "trr-simra|demo-unbalanced|demo-bad-wr|demo-subtrp|"
          "demo-broken|demo-ctrl-clobber|demo-majority-geom)",
          name.c_str());
}

int
cmdLint(const Args &args)
{
    const dram::DeviceConfig cfg = configFrom(args);
    const std::string program_name = args.get("program", "demo-broken");
    const bender::Program program = lintProgramByName(
        program_name, cfg,
        static_cast<std::uint64_t>(args.getInt("hammers", 100000)));

    lint::LintOptions opts;
    opts.effects = args.has("effects");
    opts.dataflow = args.has("dataflow");
    if (args.has("mitigations")) {
        for (const std::string &m :
             splitList(args.get("mitigations", ""))) {
            if (m == "trr")
                opts.mitigations.trr = true;
            else if (m == "prac")
                opts.mitigations.prac = true;
            else if (m == "para")
                opts.mitigations.para = true;
            else if (m == "graphene")
                opts.mitigations.graphene = true;
            else
                fatal("unknown --mitigations entry '%s' "
                      "(trr|prac|para|graphene)",
                      m.c_str());
        }
        if (!opts.mitigations.any())
            fatal("--mitigations needs at least one of "
                  "trr,prac,para,graphene");
    }
    lint::EffectReport report;
    const bool want_report = opts.effects || opts.mitigations.any();
    const lint::LintResult result = lint::lintProgram(
        program, cfg, opts, want_report ? &report : nullptr);

    if (args.has("sarif")) {
        lint::printSarif(result, program);
    } else if (args.has("json")) {
        lint::printJson(result, program);
    } else {
        lint::printReport(result, program);
        if (want_report && !report.victims.empty()) {
            const bool mit = opts.mitigations.any();
            std::printf("\npredicted victims on %s "
                        "(damage as a fraction of the flip threshold):\n",
                        cfg.profile.moduleId.c_str());
            std::vector<std::string> cols = {"bank", "phys row",
                                             "weighted closes",
                                             "optimistic", "typical",
                                             "verdict"};
            if (mit) {
                cols.push_back("mitigation");
                cols.push_back("bypass HC_first >=");
            }
            Table table(cols);
            for (const auto &v : report.victims) {
                std::vector<std::string> row = {
                    Table::count(v.bank), Table::count(v.victimPhys),
                    Table::num(v.weightedCloses),
                    Table::num(v.optimisticDamage, 3),
                    Table::num(v.typicalDamage, 3),
                    v.verdict == lint::Verdict::Likely ? "likely"
                                                       : "impossible"};
                if (mit) {
                    row.push_back(mitVerdictName(v.mitVerdict));
                    row.push_back(
                        v.bypassHcFirstLowerBound > 0
                            ? Table::num(v.bypassHcFirstLowerBound, 0)
                            : std::string("unreachable"));
                }
                table.addRow(row);
            }
            table.print(stdout);
        }
    }

    if (!result.clean())
        return 1;
    if (args.has("werror") &&
        result.totalCount(lint::Severity::Warning) > 0)
        return 1;
    return 0;
}

int
cmdDiffCheck(const Args &args)
{
    check::DiffCheckConfig cfg;
    cfg.seeds =
        static_cast<std::uint64_t>(args.getInt("seeds", 1000));
    cfg.firstSeed =
        static_cast<std::uint64_t>(args.getInt("first-seed", 1));
    if (args.has("mitigation")) {
        const std::string mech = args.get("mitigation", "");
        if (mech == "trr")
            cfg.mitigation = check::MitigationUnderTest::Trr;
        else if (mech == "prac")
            cfg.mitigation = check::MitigationUnderTest::Prac;
        else
            fatal("unknown --mitigation '%s' (expected trr or prac)",
                  mech.c_str());
    }
    const bool mit =
        cfg.mitigation != check::MitigationUnderTest::None;
    const check::DiffCheckStats stats = check::runDiffCheck(cfg);

    if (args.has("json")) {
        std::printf(
            "{\"mode\":\"%s\",\"programs\":%llu,"
            "\"instructions\":%llu,\"loops\":%llu,"
            "\"likelyVictims\":%llu,\"mitigatedCertainRows\":%llu,"
            "\"bypassCertainRows\":%llu,\"possibleRows\":%llu,"
            "\"flippedRows\":%llu,\"rowsVerified\":%llu,"
            "\"mismatches\":%llu,\"soundnessViolations\":%llu}\n",
            !mit ? "dataflow"
                 : cfg.mitigation == check::MitigationUnderTest::Trr
                       ? "trr"
                       : "prac",
            static_cast<unsigned long long>(stats.programs),
            static_cast<unsigned long long>(stats.instructions),
            static_cast<unsigned long long>(stats.loops),
            static_cast<unsigned long long>(stats.likelyVictims),
            static_cast<unsigned long long>(stats.mitigatedCertainRows),
            static_cast<unsigned long long>(stats.bypassCertainRows),
            static_cast<unsigned long long>(stats.possibleRows),
            static_cast<unsigned long long>(stats.flippedRows),
            static_cast<unsigned long long>(stats.rowsVerified),
            static_cast<unsigned long long>(stats.mismatches),
            static_cast<unsigned long long>(
                stats.soundnessViolations));
        return stats.ok() ? 0 : 1;
    }

    Table table({"metric", "value"});
    const auto row = [&](const char *label, std::uint64_t v) {
        table.addRow({label, Table::count(static_cast<long long>(v))});
    };
    row("programs", stats.programs);
    row("instructions", stats.instructions);
    row("loops", stats.loops);
    if (mit) {
        row("likely victims", stats.likelyVictims);
        row("mitigated-certain rows (asserted)",
            stats.mitigatedCertainRows);
        row("bypass-certain rows (asserted)", stats.bypassCertainRows);
        row("bypass-possible rows (refused)", stats.possibleRows);
        row("victim rows flipped unmitigated", stats.flippedRows);
        row("soundness violations", stats.soundnessViolations);
    } else {
        row("SiMRA merges", stats.merges);
        row("rows verified bit-exact", stats.rowsVerified);
        row("rows unverifiable (by design)", stats.rowsUnverifiable);
        row("mismatches", stats.mismatches);
    }
    table.print();

    if (!stats.ok()) {
        std::printf("\nFIRST MISMATCH: %s\n",
                    stats.firstMismatch.c_str());
        return 1;
    }
    if (mit) {
        std::printf("\nno soundness violations across %llu programs\n",
                    static_cast<unsigned long long>(stats.programs));
    } else {
        std::printf("\nno static/dynamic disagreement across %llu "
                    "programs\n",
                    static_cast<unsigned long long>(stats.programs));
    }
    return 0;
}

/**
 * Extract one value from a flat single-line JSON object as written by
 * obs::TraceWriter: quoted strings come back unquoted (escapes left
 * as-is; event names and field keys never contain them), everything
 * else as the raw token.  Empty string when the key is absent.
 */
std::string
jsonRaw(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    std::size_t i = pos + needle.size();
    if (i < line.size() && line[i] == '"') {
        std::size_t j = i + 1;
        while (j < line.size() && line[j] != '"') {
            if (line[j] == '\\')
                ++j;
            ++j;
        }
        return line.substr(i + 1, j - i - 1);
    }
    std::size_t j = i;
    while (j < line.size() && line[j] != ',' && line[j] != '}')
        ++j;
    return line.substr(i, j - i);
}

double
jsonNum(const std::string &line, const std::string &key,
        double fallback = 0.0)
{
    const std::string raw = jsonRaw(line, key);
    return raw.empty() ? fallback : std::atof(raw.c_str());
}

int
cmdTraceSummarize(const Args &args)
{
    std::string path = args.get("trace");
    if (path.empty() && args.positional().size() > 1)
        path = args.positional()[1];
    if (path.empty())
        fatal("trace-summarize: need --trace=FILE (or a positional "
              "trace path)");
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("trace-summarize: cannot open '%s'", path.c_str());

    std::map<std::string, std::uint64_t> counts;
    double total = 0.0;       // trace_close wall_s
    double last_ts = 0.0;     // fallback for truncated traces
    double sweep_wall = 0.0;  // sum of sweep_end wall_s
    double shard_busy = 0.0;  // sum of work_unit seconds
    std::vector<std::pair<double, double>> sweeps;
    std::vector<double> open_sweeps;
    std::vector<std::pair<double, double>> program_ends;  // (ts, wall)
    bool closed = false;

    char buf[4096];
    while (std::fgets(buf, sizeof(buf), f)) {
        const std::string line(buf);
        const std::string ev = jsonRaw(line, "ev");
        if (ev.empty())
            continue;
        ++counts[ev];
        const double ts = jsonNum(line, "ts");
        last_ts = std::max(last_ts, ts);
        if (ev == "sweep_start") {
            open_sweeps.push_back(ts);
        } else if (ev == "sweep_end") {
            const double start =
                open_sweeps.empty() ? 0.0 : open_sweeps.back();
            if (!open_sweeps.empty())
                open_sweeps.pop_back();
            sweeps.emplace_back(start, ts);
            sweep_wall += jsonNum(line, "wall_s");
        } else if (ev == "work_unit") {
            shard_busy += jsonNum(line, "seconds");
        } else if (ev == "program_end") {
            program_ends.emplace_back(ts, jsonNum(line, "wall_s"));
        } else if (ev == "trace_close") {
            total = jsonNum(line, "wall_s");
            closed = true;
        }
    }
    std::fclose(f);
    if (counts.empty())
        fatal("trace-summarize: no events in '%s'", path.c_str());
    if (!closed) {
        warn("trace has no trace_close (truncated run?); using the "
             "last timestamp as total wall time");
        total = last_ts;
    }

    std::printf("trace: %s\n\n", path.c_str());
    Table events({"event", "count"});
    std::uint64_t total_events = 0;
    for (const auto &[ev, n] : counts) {
        events.addRow(
            {ev, Table::count(static_cast<long long>(n))});
        total_events += n;
    }
    events.addRow(
        {"(all)", Table::count(static_cast<long long>(total_events))});
    events.print();

    // Wall-time attribution: population sweeps cover their interval
    // wholesale (per-shard detail is in the work_unit rows); programs
    // that ran *outside* any sweep (e.g. pudhammer attack, TRR
    // experiments) contribute their own wall time.
    double outside = 0.0;
    for (const auto &[ts, wall] : program_ends) {
        bool inside = false;
        for (const auto &[s, e] : sweeps)
            inside = inside || (ts >= s && ts <= e);
        if (!inside)
            outside += wall;
    }
    const double accounted = sweep_wall + outside;
    const double pct =
        total > 0.0 ? 100.0 * accounted / total : 100.0;

    std::printf("\n");
    Table phases({"phase", "wall s", "% of total"});
    auto pctOf = [&](double s) {
        return Table::num(total > 0.0 ? 100.0 * s / total : 0.0, 1);
    };
    phases.addRow({"population sweeps", Table::num(sweep_wall, 3),
                   pctOf(sweep_wall)});
    phases.addRow({"  shard busy (parallel)", Table::num(shard_busy, 3),
                   pctOf(shard_busy)});
    phases.addRow({"programs outside sweeps", Table::num(outside, 3),
                   pctOf(outside)});
    phases.addRow({"unattributed",
                   Table::num(std::max(0.0, total - accounted), 3),
                   pctOf(std::max(0.0, total - accounted))});
    phases.addRow({"total (trace_close)", Table::num(total, 3),
                   Table::num(100.0, 1)});
    phases.print();
    std::printf("\naccounted for %.1f%% of wall time\n", pct);
    return 0;
}

int
cmdFuzz(const Args &args)
{
    fuzz::CampaignConfig cfg;
    cfg.moduleId = args.get("module", cfg.moduleId);
    cfg.candidates = static_cast<std::uint64_t>(
        args.getInt("candidates", 2000));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.jobs = static_cast<int>(args.getInt("jobs", 1));
    cfg.rowsPerSubarray =
        static_cast<dram::RowId>(args.getInt("rows", 64));
    cfg.maxPeriods = static_cast<std::uint64_t>(
        args.getInt("budget-periods", 20000));
    cfg.chunk =
        static_cast<std::size_t>(args.getInt("chunk", 256));
    cfg.staticFilter = !args.has("no-static-filter");
    cfg.baseline = !args.has("no-baseline");
    cfg.minimizeTop =
        static_cast<int>(args.getInt("minimize-top", 1));

    const fuzz::CampaignResult result = fuzz::runCampaign(cfg);

    const std::string corpus_path = args.get("corpus");
    if (!corpus_path.empty()) {
        std::ofstream os(corpus_path);
        if (!os)
            fatal("fuzz: cannot open corpus file %s",
                  corpus_path.c_str());
        fuzz::writeCorpusJsonl(result, os);
    }
    std::fputs(fuzz::summarize(result).c_str(), stdout);
    return 0;
}

void
usage()
{
    std::printf(
        "usage: pudhammer <command> [options]\n"
        "  modules                      list Table 2 module families\n"
        "  reveng  --module=ID          reverse engineer a module\n"
        "  hcfirst --module=ID --technique=rh|comra|simra [--n=4]\n"
        "          [--victims=K] [--temp=C] [--pattern=...|wcdp]\n"
        "          [--jobs=N]  (N threads; 0 = all cores, 1 = serial;\n"
        "           results are identical for every N > 1)\n"
        "  popsweep --module=ID [--modules=N] [--victims=K]\n"
        "          [--technique=rh|comra|simra] [--n=4]\n"
        "          [--workers=W --dir=PATH] [--jobs=J] [--alpha=A]\n"
        "          [--stall-timeout=S]\n"
        "          fleet sweep through the sketch pipeline; W worker\n"
        "          processes (0 = in-process reference path); stdout\n"
        "          is byte-identical across workers/jobs/restarts\n"
        "  attack  --module=ID --technique=rh|comra|simra [--trr]\n"
        "          [--hammers=N]\n"
        "  lint    --program=rh|comra|simra|combined|trr-rh|trr-simra\n"
        "          |demo-unbalanced|demo-bad-wr|demo-subtrp|demo-broken\n"
        "          |demo-ctrl-clobber|demo-majority-geom\n"
        "          [--module=ID | --profile=ID] [--hammers=N]\n"
        "          [--effects] [--dataflow]\n"
        "          [--mitigations=trr,prac,para,graphene]\n"
        "          [--json | --sarif] [--werror]\n"
        "          (--effects: static disturbance prediction;\n"
        "           --dataflow: row-state dataflow analysis;\n"
        "           --mitigations: bypass certifier vs the listed\n"
        "           mechanisms; --werror: warnings also exit nonzero)\n"
        "  fuzz    [--module=ID] [--candidates=N] [--seed=N]\n"
        "          [--jobs=N] [--rows=N] [--budget-periods=N]\n"
        "          [--chunk=N] [--corpus=FILE] [--minimize-top=K]\n"
        "          [--no-static-filter] [--no-baseline]\n"
        "          frequency-domain pattern fuzzing campaign; the\n"
        "          JSONL corpus and stdout are byte-identical across\n"
        "          --jobs values for a fixed seed\n"
        "  diffcheck [--seeds=N] [--first-seed=N]\n"
        "          [--mitigation=trr|prac] [--json]\n"
        "          differential check: seeded random programs through\n"
        "          the dataflow pass and the device, bit-exact rows;\n"
        "          with --mitigation, the bypass certifier's Certain\n"
        "          verdicts are asserted against a live mitigation\n"
        "  trace-summarize --trace=FILE\n"
        "          per-phase time/count tables from a JSONL trace\n"
        "common: --seed=N --rows=N (rows per subarray)\n"
        "        --trace=FILE (JSONL event trace)\n"
        "        --metrics (deterministic counters on stdout at exit)\n"
        "        --help (the options a command accepts; any other\n"
        "        option is an error)\n");
}

/** A subcommand and every option it reads, shared ones included. */
struct Command
{
    const char *name;
    std::vector<std::string> options;
    int (*run)(const Args &);
};

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"modules", {"trace", "metrics"},
         [](const Args &) { return cmdModules(); }},
        {"reveng", {"module", "profile", "seed", "rows", "trace", "metrics"},
         cmdReveng},
        {"hcfirst",
         {"technique", "n", "temp", "pattern", "module", "victims", "seed",
          "rows", "jobs", "trace", "metrics"},
         cmdHcFirst},
        {"popsweep",
         {"technique", "n", "temp", "module", "modules", "victims", "seed",
          "rows", "workers", "jobs", "alpha", "dir", "stall-timeout",
          "trace", "metrics"},
         cmdPopsweep},
        {"attack",
         {"technique", "n", "hammers", "trr", "module", "profile", "seed",
          "rows", "trace", "metrics"},
         cmdAttack},
        {"lint",
         {"program", "hammers", "effects", "dataflow", "mitigations",
          "sarif", "json", "werror", "module", "profile", "seed", "rows",
          "trace", "metrics"},
         cmdLint},
        {"fuzz",
         {"module", "candidates", "seed", "jobs", "rows", "budget-periods",
          "chunk", "corpus", "minimize-top", "no-static-filter",
          "no-baseline", "trace", "metrics"},
         cmdFuzz},
        {"diffcheck",
         {"seeds", "first-seed", "mitigation", "json", "trace", "metrics"},
         cmdDiffCheck},
        {"trace-summarize", {"trace"}, cmdTraceSummarize},
    };
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    if (args.positional().empty()) {
        usage();
        return args.has("help") ? 0 : 2;
    }
    const std::string &cmd = args.positional().front();
    const auto &table = commands();
    const auto command =
        std::find_if(table.begin(), table.end(),
                     [&](const Command &c) { return cmd == c.name; });
    if (command == table.end()) {
        usage();
        return 2;
    }
    if (args.has("help")) {
        std::printf("pudhammer %s options:", command->name);
        for (const std::string &option : command->options)
            std::printf(" --%s", option.c_str());
        std::printf("\n(see `pudhammer --help` for what they do)\n");
        return 0;
    }
    args.requireKnown(command->options, "pudhammer " + cmd);
    if (cmd != "trace-summarize")
        obs::initFromArgs(args);
    return command->run(args);
}
