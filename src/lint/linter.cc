#include "lint/linter.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include <iterator>

#include "bender/plan.h"
#include "dram/mapping.h"
#include "dram/protocol.h"
#include "lint/absint.h"
#include "lint/dataflow.h"
#include "lint/effects.h"
#include "util/logging.h"
#include "util/saturate.h"

namespace pud::lint {

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

const char *
name(Code code)
{
    switch (code) {
      case Code::UnbalancedLoop:        return "unbalanced-loop";
      case Code::EmptyLoop:             return "empty-loop";
      case Code::ZeroTripLoop:          return "zero-trip-loop";
      case Code::FastPathEligible:      return "fast-path-eligible";
      case Code::FastPathIneligible:    return "fast-path-ineligible";
      case Code::BankOutOfRange:        return "bank-out-of-range";
      case Code::RowOutOfRange:         return "row-out-of-range";
      case Code::ActWhileOpen:          return "act-while-open";
      case Code::RdOnClosedBank:        return "rd-on-closed-bank";
      case Code::WrOnClosedBank:        return "wr-on-closed-bank";
      case Code::PreOnIdleBank:         return "pre-on-idle-bank";
      case Code::RefWithOpenBank:       return "ref-with-open-bank";
      case Code::NegativeGap:           return "negative-gap";
      case Code::OpenBankAtEnd:         return "open-bank-at-end";
      case Code::WrBadDataIndex:        return "wr-bad-data-index";
      case Code::WrWidthMismatch:       return "wr-width-mismatch";
      case Code::IntendedComra:         return "intended-comra";
      case Code::IntendedSimra:         return "intended-simra";
      case Code::SimraUnsupported:      return "simra-unsupported";
      case Code::SuspiciousPreToAct:    return "suspicious-pre-to-act";
      case Code::SuspiciousActToPre:    return "suspicious-act-to-pre";
      case Code::SuspiciousActToAct:    return "suspicious-act-to-act";
      case Code::ColumnBeforeTrcd:      return "column-before-trcd";
      case Code::RefRecoveryShort:      return "ref-recovery-short";
      case Code::RefreshWindowExceeded: return "refresh-window-exceeded";
      case Code::RefreshCadenceSparse:  return "refresh-cadence-sparse";
      case Code::DisturbanceLikely:     return "disturbance-likely";
      case Code::DisturbanceImpossible: return "disturbance-impossible";
      case Code::DfReadBeforeWrite:     return "df-read-before-write";
      case Code::DfReadUndefined:       return "df-read-undefined";
      case Code::DfDeadWrite:           return "df-dead-write";
      case Code::DfControlRowClobber:   return "df-control-row-clobber";
      case Code::DfAggressorAsData:     return "df-aggressor-as-data";
      case Code::DfGroupCrossesSubarray:
        return "df-group-crosses-subarray";
      case Code::DfGroupOverlap:        return "df-group-overlap";
      case Code::DfMajorityUninitInput:
        return "df-majority-uninit-input";
      case Code::DfMajorityTie:         return "df-majority-tie";
      case Code::MitBypassCertain:      return "mit-bypass-certain";
      case Code::MitBypassPossible:     return "mit-bypass-possible";
      case Code::MitMitigatedCertain:   return "mit-mitigated-certain";
      case Code::MitTrrSamplerStarved:
        return "mit-trr-sampler-starved";
      case Code::MitAboThresholdSkirted:
        return "mit-abo-threshold-skirted";
      case Code::DiagFlood:             return "diag-flood";
    }
    return "?";
}

const char *
name(Severity severity)
{
    switch (severity) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

Severity
severityOf(Code code)
{
    switch (code) {
      case Code::UnbalancedLoop:
      case Code::BankOutOfRange:
      case Code::RowOutOfRange:
      case Code::ActWhileOpen:
      case Code::RdOnClosedBank:
      case Code::WrOnClosedBank:
      case Code::RefWithOpenBank:
      case Code::NegativeGap:
      case Code::WrBadDataIndex:
      case Code::WrWidthMismatch:
        return Severity::Error;

      case Code::EmptyLoop:
      case Code::ZeroTripLoop:
      case Code::PreOnIdleBank:
      case Code::OpenBankAtEnd:
      case Code::SimraUnsupported:
      case Code::SuspiciousPreToAct:
      case Code::SuspiciousActToPre:
      case Code::SuspiciousActToAct:
      case Code::ColumnBeforeTrcd:
      case Code::RefRecoveryShort:
      case Code::RefreshWindowExceeded:
      case Code::RefreshCadenceSparse:
      case Code::DisturbanceImpossible:
      // Dataflow findings are never errors: every flagged program
      // still runs; the verdicts explain what its rows will (not)
      // hold.
      case Code::DfReadUndefined:
      case Code::DfControlRowClobber:
      case Code::DfAggressorAsData:
      case Code::DfGroupCrossesSubarray:
      case Code::DfGroupOverlap:
      case Code::DfMajorityUninitInput:
      case Code::DfMajorityTie:
      // A certain or possible bypass is the finding the mitigation
      // pass exists to surface; a starved sampler or skirted ABO
      // threshold explains *how* the bypass is engineered.
      case Code::MitBypassCertain:
      case Code::MitBypassPossible:
      case Code::MitTrrSamplerStarved:
      case Code::MitAboThresholdSkirted:
        return Severity::Warning;

      case Code::FastPathEligible:
      case Code::FastPathIneligible:
      case Code::IntendedComra:
      case Code::IntendedSimra:
      case Code::DisturbanceLikely:
      case Code::DfReadBeforeWrite:
      case Code::DfDeadWrite:
      case Code::MitMitigatedCertain:
      case Code::DiagFlood:
        return Severity::Note;
    }
    return Severity::Error;
}

namespace {

using bender::Inst;
using bender::LoopNode;
using bender::Op;
using bender::Program;

/** The analyzer's walk state and diagnostic sink. */
class Walker
{
  public:
    Walker(const Program &program, const dram::DeviceConfig &cfg,
           LintResult &out)
        : program_(program),
          cfg_(cfg),
          mapping_(cfg.profile.mapping),
          out_(out),
          banks_(cfg.banks)
    {}

    void
    run()
    {
        walkBody(Program::npos);
        finish();
        out_.duration = exactDuration(Program::npos);
    }

  private:
    struct BankSt
    {
        dram::BankProtocol proto;
        std::size_t pendingPreIndex = 0;  //!< the PRE of proto.pending
    };

    template <typename... Args>
    void
    add(Code code, std::size_t inst, const char *fmt, Args... args)
    {
        if (!seen_.insert({static_cast<int>(code), inst}).second)
            return;
        out_.diags.push_back({code, severityOf(code), inst,
                              format(fmt, args...)});
    }

    /**
     * Exact duration of loop `id`'s body (Program::npos: the program)
     * with real trip counts, saturating at INT64_MAX.
     */
    Time
    exactDuration(std::size_t id) const
    {
        const auto &insts = program_.insts();
        Time d = 0;
        program_.forEachInBody(
            id,
            [&](std::size_t i) {
                d = satAddT(d, std::max<Time>(insts[i].gap, 0));
            },
            [&](std::size_t li) {
                // An unclosed loop's body is the rest of the program.
                const LoopNode &loop = program_.loops()[li];
                d = satAddT(d, satMulT(exactDuration(li),
                                       insts[loop.begin].count));
            });
        return d;
    }

    void
    walkBody(std::size_t id)
    {
        program_.forEachInBody(
            id, [&](std::size_t i) { step(i); },
            [&](std::size_t li) { walkLoop(li); });
    }

    void
    walkLoop(std::size_t id)
    {
        const LoopNode &loop = program_.loops()[id];
        const std::uint64_t count = program_.insts()[loop.begin].count;
        if (loop.end == Program::npos) {
            add(Code::UnbalancedLoop, loop.begin,
                "LoopBegin (count %llu) has no matching LoopEnd; the "
                "executor refuses to run unbalanced programs",
                static_cast<unsigned long long>(count));
            walkBody(id);  // analyze the tail as the body, once
            return;
        }
        checkLoop(loop, count);
        // Two passes: the second observes back-edge gaps (e.g. the
        // PRE->ACT spacing across iterations).
        const std::uint64_t passes =
            count == 0 ? 1 : std::min<std::uint64_t>(count, 2);
        for (std::uint64_t p = 0; p < passes; ++p)
            walkBody(id);
    }

    void
    checkLoop(const LoopNode &loop, std::uint64_t count)
    {
        if (loop.end == loop.begin + 1)
            add(Code::EmptyLoop, loop.begin,
                "loop body is empty; %llu iterations do nothing",
                static_cast<unsigned long long>(count));
        if (count == 0)
            add(Code::ZeroTripLoop, loop.begin,
                "trip count is 0: the body never executes (forgot "
                "Program::setLoopCount?)");

        if (count < bender::kFastPathThreshold)
            return;

        // Fast-path eligibility is the executor's own (the body class
        // the Program builder records), so lint cannot drift from it.
        switch (loop.cls) {
          case bender::BodyClass::Simple:
            add(Code::FastPathEligible, loop.begin,
                "hot loop (%llu iterations) is fast-path eligible: "
                "the executor replays one recorded iteration "
                "arithmetically",
                static_cast<unsigned long long>(count));
            break;
          case bender::BodyClass::Recorded:
            add(Code::FastPathEligible, loop.begin,
                "hot loop (%llu iterations) is fast-path eligible: "
                "with TRR off and no mitigation hook, REF stripe "
                "refreshes and nested loops replay by closed-form "
                "per-iteration deltas from one recorded iteration; "
                "otherwise it runs live, a flat body segment by "
                "segment (REF-free segments re-applied from logs)",
                static_cast<unsigned long long>(count));
            break;
          case bender::BodyClass::Naive:
            add(Code::FastPathIneligible, loop.begin,
                "hot loop (%llu iterations) runs naively: body "
                "contains RD (results are collected per iteration)",
                static_cast<unsigned long long>(count));
            break;
        }
    }

    /** Flush a bank's pending close without a consuming ACT. */
    void
    dropPending(BankSt &bank)
    {
        if (!bank.proto.dropPending())
            return;
        const Time t_on = bank.proto.pending.tOn;
        if (t_on < cfg_.timings.tRAS) {
            add(Code::SuspiciousActToPre, bank.pendingPreIndex,
                "row held open only %.2f ns, violating nominal tRAS "
                "(%.2f ns) with no SiMRA-completing ACT following: "
                "the row is left with a partial charge restore",
                units::toNs(t_on), units::toNs(cfg_.timings.tRAS));
        }
    }

    /**
     * Report how the bank protocol resolved a PRE->ACT transition:
     * intended CoMRA, intended SiMRA, or a suspicious timing violation
     * (paper §4.1, §5.1).
     */
    void
    reportReopen(const BankSt &bank, const dram::BankProtocol::Step &s,
                 std::size_t act_index, dram::RowId act_phys)
    {
        const dram::TimingParams &t = cfg_.timings;
        const Time t_on = s.tOn;
        const Time gap = s.gap;

        switch (s.transition) {
          case dram::Transition::SimraIgnored:
            add(Code::SimraUnsupported, act_index,
                "ACT-PRE-ACT matches the SiMRA signature, but "
                "module %s ignores grossly violating commands "
                "(no SiMRA support): the quick PRE and this ACT "
                "have no effect",
                cfg_.profile.moduleId.c_str());
            return;
          case dram::Transition::SimraGroup:
            add(Code::IntendedSimra, act_index,
                "ACT-PRE-ACT with t_AggOn %.2f ns (<= %.2f ns) and "
                "PRE->ACT %.2f ns (<= %.2f ns): intended SiMRA "
                "multi-row activation",
                units::toNs(t_on), units::toNs(t.simraMaxActToPre),
                units::toNs(gap), units::toNs(t.simraMaxPreToAct));
            return;
          case dram::Transition::ComraCopy:
            add(Code::IntendedComra, act_index,
                "full tRAS restore then PRE->ACT %.2f ns (nominal "
                "tRP %.2f ns, CoMRA window <= %.2f ns): intended "
                "in-DRAM RowClone copy",
                units::toNs(gap), units::toNs(t.tRP),
                units::toNs(t.comraMaxPreToAct));
            return;
          case dram::Transition::Conventional:
            break;
        }

        const bool cross_subarray =
            bank.proto.pending.rows.front() / cfg_.rowsPerSubarray !=
            act_phys / cfg_.rowsPerSubarray;
        if (cross_subarray && s.window == dram::PudWindow::Simra) {
            add(Code::SuspiciousActToPre, bank.pendingPreIndex,
                "ACT-PRE-ACT with SiMRA-grade violations "
                "(t_AggOn %.2f ns, PRE->ACT %.2f ns) but the two "
                "rows are in different subarrays: no group "
                "activates",
                units::toNs(t_on), units::toNs(gap));
            return;
        }
        if (cross_subarray && s.window == dram::PudWindow::Comra) {
            add(Code::SuspiciousPreToAct, act_index,
                "PRE->ACT gap %.2f ns is in the CoMRA window "
                "(<= %.2f ns) but source and destination are in "
                "different subarrays: no copy occurs, only an "
                "accidental tRP violation",
                units::toNs(gap), units::toNs(t.comraMaxPreToAct));
            return;
        }

        bool flagged = false;
        if (t_on < t.tRAS) {
            add(Code::SuspiciousActToPre, bank.pendingPreIndex,
                "ACT->PRE gap %.2f ns violates nominal tRAS "
                "(%.2f ns) but matches no PuD idiom (SiMRA needs "
                "<= %.2f ns followed by an ACT within %.2f ns)",
                units::toNs(t_on), units::toNs(t.tRAS),
                units::toNs(t.simraMaxActToPre),
                units::toNs(t.simraMaxPreToAct));
            flagged = true;
        }
        if (gap < t.tRP) {
            add(Code::SuspiciousPreToAct, act_index,
                "PRE->ACT gap %.2f ns violates nominal tRP (%.2f ns) "
                "but matches no PuD idiom (CoMRA needs <= %.2f ns "
                "after a full tRAS restore, same subarray)",
                units::toNs(gap), units::toNs(t.tRP),
                units::toNs(t.comraMaxPreToAct));
            flagged = true;
        }
        if (!flagged && t_on + gap < t.tRC) {
            add(Code::SuspiciousActToAct, act_index,
                "ACT->ACT spacing %.2f ns violates nominal tRC "
                "(%.2f ns)",
                units::toNs(t_on + gap), units::toNs(t.tRC));
        }
    }

    /** PRE (or PREA) at instruction `pre_index`; false when idle. */
    bool
    closeBank(BankSt &bank, std::size_t pre_index)
    {
        if (!bank.proto.pre(cursor_))
            return false;
        bank.pendingPreIndex = pre_index;
        return true;
    }

    void
    checkColumnTiming(const BankSt &bank, std::size_t i, const char *op)
    {
        const Time since = cursor_ - bank.proto.openedAt;
        if (since < cfg_.timings.tRCD) {
            add(Code::ColumnBeforeTrcd, i,
                "%s %.2f ns after ACT violates nominal tRCD "
                "(%.2f ns): the row is not yet sensed",
                op, units::toNs(since),
                units::toNs(cfg_.timings.tRCD));
        }
    }

    void
    checkRefRecovery(std::size_t i)
    {
        if (!afterRef_)
            return;
        afterRef_ = false;
        if (cursor_ - lastRefAt_ < cfg_.timings.tRFC) {
            add(Code::RefRecoveryShort, i,
                "command issued %.2f ns after REF violates nominal "
                "tRFC (%.2f ns)",
                units::toNs(cursor_ - lastRefAt_),
                units::toNs(cfg_.timings.tRFC));
        }
    }

    void
    step(std::size_t i)
    {
        const Inst &inst = program_.insts()[i];
        if (inst.gap < 0) {
            add(Code::NegativeGap, i,
                "gap %lld ps is negative: command time would go "
                "backwards",
                static_cast<long long>(inst.gap));
        }
        cursor_ += std::max<Time>(inst.gap, 0);
        if (inst.op == Op::Nop)
            return;
        checkRefRecovery(i);

        const bool banked = inst.op == Op::Act || inst.op == Op::Pre ||
                            inst.op == Op::Rd || inst.op == Op::Wr;
        if (banked && inst.bank >= cfg_.banks) {
            add(Code::BankOutOfRange, i,
                "command targets bank %u (device has %u banks)",
                inst.bank, cfg_.banks);
            return;
        }

        switch (inst.op) {
          case Op::Act: {
            if (inst.row >= cfg_.rowsPerBank()) {
                add(Code::RowOutOfRange, i,
                    "ACT targets row %u (bank has %u rows)", inst.row,
                    cfg_.rowsPerBank());
                return;
            }
            BankSt &bank = banks_[inst.bank];
            const dram::RowId phys = mapping_.toPhysical(inst.row);
            if (bank.proto.isOpen()) {
                add(Code::ActWhileOpen, i,
                    "ACT to bank %u while row %u is open (missing "
                    "PRE): the device fatals here",
                    inst.bank, bank.proto.openRows.front());
            }
            const bool reopen = bank.proto.pending.valid;
            const dram::BankProtocol::Step s =
                bank.proto.act(cfg_, cursor_, phys);
            if (reopen)
                reportReopen(bank, s, i, phys);
            break;
          }
          case Op::Pre: {
            if (!closeBank(banks_[inst.bank], i))
                add(Code::PreOnIdleBank, i,
                    "PRE on bank %u with no open row is a no-op "
                    "(duplicate PRE or wrong bank?)",
                    inst.bank);
            break;
          }
          case Op::PreAll: {
            for (BankSt &bank : banks_)
                closeBank(bank, i);
            break;
          }
          case Op::Rd: {
            BankSt &bank = banks_[inst.bank];
            if (!bank.proto.isOpen())
                add(Code::RdOnClosedBank, i,
                    "RD on bank %u with no open row: the device "
                    "fatals here",
                    inst.bank);
            else
                checkColumnTiming(bank, i, "RD");
            break;
          }
          case Op::Wr: {
            BankSt &bank = banks_[inst.bank];
            if (!bank.proto.isOpen())
                add(Code::WrOnClosedBank, i,
                    "WR on bank %u with no open row: the device "
                    "fatals here",
                    inst.bank);
            else
                checkColumnTiming(bank, i, "WR");
            const auto &table = program_.dataTable();
            if (inst.dataIndex < 0 ||
                inst.dataIndex >= static_cast<int>(table.size())) {
                add(Code::WrBadDataIndex, i,
                    "WR data index %d is outside the program data "
                    "table (%zu entries)",
                    inst.dataIndex, table.size());
            } else if (table[static_cast<std::size_t>(inst.dataIndex)]
                           .bits() != cfg_.cols) {
                add(Code::WrWidthMismatch, i,
                    "WR data entry %d is %u bits wide, device rows "
                    "are %u bits",
                    inst.dataIndex,
                    table[static_cast<std::size_t>(inst.dataIndex)]
                        .bits(),
                    cfg_.cols);
            }
            break;
          }
          case Op::Ref: {
            for (dram::BankId b = 0; b < cfg_.banks; ++b) {
                BankSt &bank = banks_[b];
                if (bank.proto.isOpen())
                    add(Code::RefWithOpenBank, i,
                        "REF issued while bank %u has an open row: "
                        "the device fatals here",
                        b);
                dropPending(bank);
            }
            lastRefAt_ = cursor_;
            afterRef_ = true;
            break;
          }
          case Op::Nop:
          case Op::LoopBegin:
          case Op::LoopEnd:
            break;
        }
    }

    void
    finish()
    {
        const std::size_t last =
            program_.insts().empty() ? 0 : program_.insts().size() - 1;
        for (dram::BankId b = 0; b < cfg_.banks; ++b) {
            BankSt &bank = banks_[b];
            if (bank.proto.isOpen())
                add(Code::OpenBankAtEnd, last,
                    "program ends with a row open on bank %u: the "
                    "next program's ACT to this bank will fatal",
                    b);
            dropPending(bank);
        }
    }

    const Program &program_;
    const dram::DeviceConfig &cfg_;
    dram::RowMapping mapping_;
    LintResult &out_;
    std::vector<BankSt> banks_;
    std::set<std::pair<int, std::size_t>> seen_;
    Time cursor_ = 0;
    Time lastRefAt_ = 0;
    bool afterRef_ = false;
};

/**
 * Refresh-cadence analysis over the loop summary (the Walker cannot
 * see replayed iterations, so REF density comes from absint).  A
 * program shorter than tREFW needs no REF at all; past tREFW, zero
 * REFs is the classic retention hazard, and REFs that *are* present
 * but clustered leave some refresh stripes unserved: the nominal
 * schedule spreads 8192 REFs evenly over the window, so any
 * unrefreshed span above ~1.25x tREFW / 8192-per-gap means some rows
 * go longer than their retention budget.
 */
void
checkRefreshCadence(const ProgramEffects &fx, const bender::Program &program,
                    const dram::DeviceConfig &cfg, LintResult &result)
{
    const dram::TimingParams &t = cfg.timings;
    if (fx.duration <= t.tREFW)
        return;
    if (fx.totalRefs == 0) {
        result.diags.push_back(
            {Code::RefreshWindowExceeded,
             severityOf(Code::RefreshWindowExceeded), 0,
             format("program runs %.1f ms, beyond the %.0f ms refresh "
                    "window, without a single REF: retention failures "
                    "will pollute bitflip counts",
                    static_cast<double>(fx.duration) / units::ms,
                    static_cast<double>(t.tREFW) / units::ms)});
        return;
    }

    // Worst unrefreshed span: the largest interior REF-to-REF gap or
    // the trailing run from the last REF to the program end.
    Time worst = fx.maxRefGap;
    std::size_t anchor = fx.maxRefGapIndex;
    const Time trailing = fx.duration - fx.lastRefAt;
    if (trailing > worst) {
        worst = trailing;
        anchor = program.insts().empty() ? 0 : program.insts().size() - 1;
    }

    const double nominal_gap =
        static_cast<double>(t.tREFW) / t.refsPerWindow;
    // 25% slack: canonical patterns pace REFs at tREFI, which already
    // sits just under the nominal budget.
    if (static_cast<double>(worst) <= nominal_gap * 1.25)
        return;
    result.diags.push_back(
        {Code::RefreshCadenceSparse,
         severityOf(Code::RefreshCadenceSparse), anchor,
         format("program runs %.1f ms with %llu REFs, but the worst "
                "unrefreshed span is %.2f us -- %.1fx the nominal "
                "%.2f us cadence (%u REFs per %.0f ms window): rows "
                "whose refresh stripe lands in the gap risk retention "
                "failures",
                static_cast<double>(fx.duration) / units::ms,
                static_cast<unsigned long long>(fx.totalRefs),
                units::toUs(worst),
                static_cast<double>(worst) / nominal_gap,
                nominal_gap / units::us, t.refsPerWindow,
                static_cast<double>(t.tREFW) / units::ms)});
}

/**
 * Collapse diagnostic floods: keep the first `cap` sites per code and
 * fold the rest into one DiagFlood note per capped code.
 */
void
capDiagFloods(LintResult &result, std::size_t cap)
{
    if (cap == 0)
        return;
    std::map<Code, std::size_t> kept;
    std::map<Code, std::size_t> lastKeptAt;
    std::map<Code, std::size_t> flooded;
    std::vector<Diag> out;
    out.reserve(result.diags.size());
    for (Diag &d : result.diags) {
        if (++kept[d.code] <= cap) {
            lastKeptAt[d.code] = d.instIndex;
            out.push_back(std::move(d));
        } else {
            ++flooded[d.code];
            ++result.suppressed;
            ++result.suppressedBySeverity[
                static_cast<std::size_t>(d.severity)];
        }
    }
    for (const auto &[code, n] : flooded) {
        out.push_back(
            {Code::DiagFlood, severityOf(Code::DiagFlood),
             lastKeptAt[code],
             format("and %zu more '%s' diagnostic(s) suppressed "
                    "(first %zu sites shown)",
                    n, name(code), cap)});
    }
    result.diags = std::move(out);
}

} // namespace

LintResult
lintProgram(const bender::Program &program, const dram::DeviceConfig &cfg)
{
    return lintProgram(program, cfg, LintOptions{});
}

LintResult
lintProgram(const bender::Program &program, const dram::DeviceConfig &cfg,
            const LintOptions &opts, EffectReport *report_out)
{
    LintResult result;
    Walker(program, cfg, result).run();

    // The sampler trace is only needed by the TRR abstract
    // transformer and costs extra ring bookkeeping, so collect it
    // only when that mitigation is under analysis.
    SamplerTrace trace;
    const bool want_trace = opts.mitigations.any() && opts.mitigations.trr;
    const ProgramEffects fx =
        want_trace ? summarizeEffects(program, cfg, &trace)
                   : summarizeEffects(program, cfg);
    checkRefreshCadence(fx, program, cfg, result);

    if (opts.dataflow) {
        DataflowResult df = analyzeDataflow(program, cfg, &fx);
        result.diags.insert(result.diags.end(),
                            std::make_move_iterator(df.diags.begin()),
                            std::make_move_iterator(df.diags.end()));
    }

    if (opts.effects || opts.mitigations.any() ||
        report_out != nullptr) {
        EffectReport report = predictEffects(fx, cfg);
        if (opts.effects)
            result.diags.insert(result.diags.end(),
                                report.diags.begin(), report.diags.end());
        if (opts.mitigations.any()) {
            std::vector<Diag> mit = analyzeMitigations(
                cfg, opts.mitigations, fx,
                want_trace ? &trace : nullptr, report);
            result.diags.insert(result.diags.end(),
                                std::make_move_iterator(mit.begin()),
                                std::make_move_iterator(mit.end()));
        }
        if (report_out != nullptr)
            *report_out = std::move(report);
    }

    std::stable_sort(result.diags.begin(), result.diags.end(),
                     [](const Diag &a, const Diag &b) {
                         return a.instIndex < b.instIndex;
                     });
    capDiagFloods(result, opts.maxRepeatsPerCode);
    return result;
}

LintResult
requireClean(const bender::Program &program,
             const dram::DeviceConfig &cfg, const char *context,
             const LintOptions &opts)
{
    LintResult result = lintProgram(program, cfg, opts);
    for (const Diag &d : result.diags) {
        if (d.severity == Severity::Error) {
            fatal("%s: pre-flight lint failed: [%s] %s "
                  "(instruction %zu; %zu error(s) total)",
                  context, name(d.code), d.message.c_str(),
                  d.instIndex, result.count(Severity::Error));
        }
    }
    return result;
}

} // namespace pud::lint
