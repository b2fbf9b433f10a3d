#include "hammer/patterns.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace pud::hammer {

Program
doubleSidedRowHammer(BankId bank, RowId a1, RowId a2,
                     std::uint64_t hammers, const PatternTimings &t)
{
    Program p;
    if (hammers == 0)
        return p;
    p.loopBegin(hammers)
        .act(bank, a1, t.base.tRP)
        .pre(bank, t.aggOn())
        .act(bank, a2, t.base.tRP)
        .pre(bank, t.aggOn())
        .loopEnd();
    return p;
}

Program
singleSidedRowHammer(BankId bank, RowId aggressor, std::uint64_t hammers,
                     const PatternTimings &t)
{
    Program p;
    if (hammers == 0)
        return p;
    p.loopBegin(hammers)
        .act(bank, aggressor, t.base.tRP)
        .pre(bank, t.aggOn())
        .loopEnd();
    return p;
}

Program
comraHammer(BankId bank, RowId src, RowId dst, std::uint64_t hammers,
            const PatternTimings &t)
{
    Program p;
    if (hammers == 0)
        return p;
    p.loopBegin(hammers)
        .act(bank, src, t.base.tRP)
        .pre(bank, t.base.tRAS)
        .act(bank, dst, t.comraPreToAct)  // violated tRP: the copy
        .pre(bank, t.aggOn())
        .loopEnd();
    return p;
}

Program
simraHammer(BankId bank, RowId r1, RowId r2, std::uint64_t hammers,
            const PatternTimings &t)
{
    Program p;
    if (hammers == 0)
        return p;
    p.loopBegin(hammers)
        .act(bank, r1, t.base.tRP)
        .pre(bank, t.simraActToPre)      // violated tRAS
        .act(bank, r2, t.simraPreToAct)  // violated tRP: group opens
        .pre(bank, t.aggOn())
        .loopEnd();
    return p;
}

namespace {

void
appendLoop(Program &dst, const Program &src)
{
    // Pattern builders above produce self-contained programs; splice
    // their instructions (they share no data table entries).
    for (const auto &inst : src.insts()) {
        switch (inst.op) {
          case bender::Op::Act:
            dst.act(inst.bank, inst.row, inst.gap);
            break;
          case bender::Op::Pre:
            dst.pre(inst.bank, inst.gap);
            break;
          case bender::Op::LoopBegin:
            dst.loopBegin(inst.count);
            break;
          case bender::Op::LoopEnd:
            dst.loopEnd();
            break;
          default:
            panic("appendLoop: unexpected opcode");
        }
    }
}

} // namespace

Program
combinedPattern(BankId bank, RowId rh_a1, RowId rh_a2, RowId comra_src,
                RowId comra_dst, RowId simra_r1, RowId simra_r2,
                const CombinedCounts &counts, const PatternTimings &t)
{
    Program p;
    if (counts.comra > 0)
        appendLoop(p, comraHammer(bank, comra_src, comra_dst,
                                  counts.comra, t));
    if (counts.simra > 0)
        appendLoop(p, simraHammer(bank, simra_r1, simra_r2,
                                  counts.simra, t));
    if (counts.rowHammer > 0)
        appendLoop(p, doubleSidedRowHammer(bank, rh_a1, rh_a2,
                                           counts.rowHammer, t));
    return p;
}

Program
withRefInterleave(const Program &flat, const dram::TimingParams &t)
{
    // A tREFI that does not exceed the tRFC recovery would leave zero
    // budget for hammering between REFs; the old code silently clamped
    // to one body iteration per tREFI, hiding the misconfiguration.
    if (t.tREFI <= t.tRFC)
        fatal("withRefInterleave: tREFI (%lld ps) must exceed tRFC "
              "(%lld ps)",
              static_cast<long long>(t.tREFI),
              static_cast<long long>(t.tRFC));
    const auto &insts = flat.insts();
    Program p;
    std::size_t i = 0;
    std::size_t next_loop = 0;  // id of the next top-level loop
    while (i < insts.size()) {
        const auto &inst = insts[i];
        if (inst.op != bender::Op::LoopBegin) {
            switch (inst.op) {
              case bender::Op::Act:
                p.act(inst.bank, inst.row, inst.gap);
                break;
              case bender::Op::Pre:
                p.pre(inst.bank, inst.gap);
                break;
              case bender::Op::PreAll:
                p.preAll(inst.gap);
                break;
              case bender::Op::Ref:
                p.ref(inst.gap);
                break;
              case bender::Op::Nop:
                p.nop(inst.gap);
                break;
              default:
                fatal("withRefInterleave: unsupported top-level "
                      "opcode at instruction %zu", i);
            }
            ++i;
            continue;
        }

        // Validate the body is flat ACT/PRE and sum its duration.
        const bender::LoopNode &loop = flat.loops()[next_loop];
        next_loop = loop.next;
        const std::size_t close = std::min(loop.end, insts.size());
        Time body_gap = 0;
        for (std::size_t k = i + 1; k < close; ++k) {
            switch (insts[k].op) {
              case bender::Op::Act:
              case bender::Op::Pre:
              case bender::Op::PreAll:
              case bender::Op::Nop:
                body_gap += insts[k].gap;
                break;
              default:
                fatal("withRefInterleave: loop body must be flat "
                      "ACT/PRE (instruction %zu)", k);
            }
        }
        if (loop.end == Program::npos)
            fatal("withRefInterleave: unbalanced loop at %zu", i);

        auto emit_body = [&] {
            for (std::size_t k = i + 1; k < close; ++k) {
                const auto &b = insts[k];
                switch (b.op) {
                  case bender::Op::Act:
                    p.act(b.bank, b.row, b.gap);
                    break;
                  case bender::Op::Pre:
                    p.pre(b.bank, b.gap);
                    break;
                  case bender::Op::PreAll:
                    p.preAll(b.gap);
                    break;
                  default:
                    p.nop(b.gap);
                    break;
                }
            }
        };

        // Iterations fitting one tREFI, after the tRFC REF recovery.
        const Time budget = t.tREFI > t.tRFC ? t.tREFI - t.tRFC : 0;
        const std::uint64_t per = std::max<std::uint64_t>(
            1, body_gap > 0
                   ? static_cast<std::uint64_t>(budget / body_gap)
                   : inst.count);
        const std::uint64_t outer = inst.count / per;
        const std::uint64_t rem = inst.count % per;

        if (outer > 0) {
            p.loopBegin(outer).loopBegin(per);
            emit_body();
            p.loopEnd().ref(t.tRP).nop(t.tRFC).loopEnd();
        }
        if (rem > 0) {
            p.loopBegin(rem);
            emit_body();
            p.loopEnd();
        }
        i = close + 1;
    }
    return p;
}

Program
trrBypassPattern(BankId bank, const std::vector<RowId> &aggressors,
                 RowId dummy, bool comra, std::uint64_t cycles,
                 const PatternTimings &t, int acts_per_trefi)
{
    if (aggressors.empty())
        fatal("trrBypassPattern: no aggressors");
    if (comra && aggressors.size() % 2 != 0)
        fatal("trrBypassPattern: CoMRA needs (src, dst) pairs");
    if (acts_per_trefi < (comra ? 2 : 1))
        fatal("trrBypassPattern: actsPerTrefi must be >= %d "
              "(got %d)",
              comra ? 2 : 1, acts_per_trefi);

    Program p;
    if (cycles == 0)
        return p;

    // Spacing that fits acts_per_trefi single-row activations (or
    // half as many copy cycles, which use two ACTs each) in one tREFI.
    const Time slot = t.base.tREFI / acts_per_trefi;
    const Time act_gap = std::max(t.base.tRP, slot - t.aggOn());
    const Time comra_gap =
        std::max(t.base.tRP, 2 * slot - t.base.tRAS -
                                 t.comraPreToAct - t.aggOn());

    // Units the aggressor phase walks: (src, dst) pairs for CoMRA,
    // single rows otherwise.
    const std::size_t units =
        comra ? aggressors.size() / 2 : aggressors.size();
    const std::size_t per_cycle = static_cast<std::size_t>(
        comra ? acts_per_trefi / 2 : acts_per_trefi);

    // The walk must carry across outer cycles: restarting at unit 0
    // every cycle would starve every unit past the first per_cycle
    // whenever units > per_cycle (and skew the distribution whenever
    // per_cycle % units != 0).  The rotation advances by
    // per_cycle % units each cycle and returns to its start after
    // `period` cycles, so unroll one full period into the loop body
    // and emit any leftover cycles flat after it; the leftover restarts
    // at offset 0 because the loop body spans whole periods.
    const std::size_t step = per_cycle % units;
    const std::size_t period =
        step == 0 ? 1 : units / std::gcd(units, step);

    const auto emit_cycle = [&](std::size_t cycle) {
        const std::size_t start = (cycle * per_cycle) % units;

        // Aggressor phase: acts_per_trefi ACTs spread over the
        // aggressor list within one tREFI, then a (potentially
        // TRR-capable) REF.
        if (comra) {
            for (std::size_t i = 0; i < per_cycle; ++i) {
                const std::size_t pair = ((start + i) % units) * 2;
                p.act(bank, aggressors[pair], comra_gap)
                    .pre(bank, t.base.tRAS)
                    .act(bank, aggressors[pair + 1], t.comraPreToAct)
                    .pre(bank, t.aggOn());
            }
        } else {
            for (std::size_t i = 0; i < per_cycle; ++i) {
                p.act(bank, aggressors[(start + i) % units], act_gap)
                    .pre(bank, t.aggOn());
            }
        }
        p.ref(t.base.tRP);

        // Dummy phase: three tREFIs of dummy-row hammering, each
        // ending with a REF, flooding the TRR sampler window.
        for (int trefi = 0; trefi < 3; ++trefi) {
            for (int i = 0; i < acts_per_trefi; ++i)
                p.act(bank, dummy, act_gap).pre(bank, t.aggOn());
            p.ref(t.base.tRP);
        }
    };

    const std::uint64_t outer = cycles / period;
    const std::uint64_t rem = cycles % period;
    if (outer > 0) {
        p.loopBegin(outer);
        for (std::size_t c = 0; c < period; ++c)
            emit_cycle(c);
        p.loopEnd();
    }
    for (std::uint64_t c = 0; c < rem; ++c)
        emit_cycle(static_cast<std::size_t>(c));
    return p;
}

Program
trrSimraPattern(BankId bank, RowId r1, RowId r2, std::uint64_t cycles,
                const PatternTimings &t, int acts_per_trefi)
{
    if (acts_per_trefi < 2)
        fatal("trrSimraPattern: actsPerTrefi must be >= 2 (got %d)",
              acts_per_trefi);
    Program p;
    if (cycles == 0)
        return p;
    const int ops_per_trefi = acts_per_trefi / 2;
    const Time slot = t.base.tREFI / ops_per_trefi;
    const Time op_gap = std::max(
        t.base.tRP,
        slot - t.simraActToPre - t.simraPreToAct - t.aggOn());

    p.loopBegin(cycles);
    for (int i = 0; i < ops_per_trefi; ++i) {
        p.act(bank, r1, op_gap)
            .pre(bank, t.simraActToPre)
            .act(bank, r2, t.simraPreToAct)
            .pre(bank, t.aggOn());
    }
    p.ref(t.base.tRP);
    p.loopEnd();
    return p;
}

} // namespace pud::hammer
