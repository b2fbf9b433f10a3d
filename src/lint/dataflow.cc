#include "lint/dataflow.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "dram/mapping.h"
#include "dram/protocol.h"
#include "lint/effects.h"
#include "pud/semantics.h"
#include "util/saturate.h"

namespace pud::lint {

const char *
name(RowStateKind kind)
{
    switch (kind) {
      case RowStateKind::Initial:      return "initial";
      case RowStateKind::Written:      return "written";
      case RowStateKind::CopyOf:       return "copy-of";
      case RowStateKind::MajorityOf:   return "majority-of";
      case RowStateKind::ChargeShared: return "charge-shared";
      case RowStateKind::Clobbered:    return "clobbered";
      case RowStateKind::Unknown:      return "unknown";
    }
    return "?";
}

namespace {

using bender::Inst;
using bender::Op;
using bender::Program;
using dram::BankId;
using dram::RowId;

bool
stateEq(const RowState &a, const RowState &b)
{
    return a.sameValue(b) && a.consumed == b.consumed &&
           a.defIndex == b.defIndex;
}

/** Strict value order for merge-input canonicalization. */
bool
valueLess(const RowState &a, const RowState &b)
{
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (a.dataIndex != b.dataIndex)
        return a.dataIndex < b.dataIndex;
    if (a.srcKey != b.srcKey)
        return a.srcKey < b.srcKey;
    return a.mergeId < b.mergeId;
}

/**
 * The dataflow walk: the device's per-bank protocol machine
 * (dram::BankProtocol) extended with the per-row contents lattice,
 * loop bodies walked to a state fixpoint.
 */
class DfWalker
{
  public:
    DfWalker(const Program &program, const dram::DeviceConfig &cfg,
             const ProgramEffects &fx, DataflowResult &out)
        : program_(program),
          cfg_(cfg),
          mapping_(cfg.profile.mapping),
          geom_(semantics::geometryOf(cfg)),
          fx_(fx),
          out_(out),
          banks_(cfg.banks)
    {}

    void
    run()
    {
        walkBody(Program::npos);
        finish();
    }

  private:
    using BankSt = dram::BankProtocol;

    /** Time-free machine + row-state image for fixpoint detection. */
    struct Snapshot
    {
        std::map<std::uint64_t, RowState> rows;
        std::vector<std::pair<std::vector<RowId>, std::vector<RowId>>>
            banks;  //!< (openRows, pending.rows-or-empty)
        std::vector<std::uint8_t> flags;  //!< open<<1 | pending.valid
    };

    Snapshot
    capture() const
    {
        Snapshot s;
        s.rows = out_.rows;
        for (const BankSt &b : banks_) {
            s.banks.push_back({b.openRows,
                               b.pending.valid ? b.pending.rows
                                               : std::vector<RowId>{}});
            s.flags.push_back(
                static_cast<std::uint8_t>((b.isOpen() ? 2 : 0) |
                                          (b.pending.valid ? 1 : 0)));
        }
        return s;
    }

    bool
    sameState(const Snapshot &s) const
    {
        if (s.rows.size() != out_.rows.size())
            return false;
        auto it = s.rows.begin();
        for (const auto &[key, st] : out_.rows) {
            if (it->first != key || !stateEq(it->second, st))
                return false;
            ++it;
        }
        for (std::size_t b = 0; b < banks_.size(); ++b) {
            const BankSt &bk = banks_[b];
            const std::uint8_t f = static_cast<std::uint8_t>(
                (bk.isOpen() ? 2 : 0) | (bk.pending.valid ? 1 : 0));
            if (s.flags[b] != f)
                return false;
            if (s.banks[b].first != bk.openRows)
                return false;
            if (bk.pending.valid && s.banks[b].second != bk.pending.rows)
                return false;
        }
        return true;
    }

    RowState &
    stateOf(BankId b, RowId phys)
    {
        return out_.rows[rowKey(b, phys)];
    }

    template <typename... Args>
    void
    add(Code code, std::size_t inst, const char *fmt, Args... args)
    {
        if (!seen_.insert({static_cast<int>(code), inst}).second)
            return;
        out_.diags.push_back({code, severityOf(code), inst,
                              format(fmt, args...)});
    }

    void
    walkBody(std::size_t id)
    {
        program_.forEachInBody(
            id, [&](std::size_t i) { step(i); },
            [&](std::size_t li) {
                const bender::LoopNode &loop = program_.loops()[li];
                const std::uint64_t count =
                    program_.insts()[loop.begin].count;
                if (loop.end == Program::npos) {
                    out_.exact = false;
                    walkBody(li);
                } else if (count > 0) {
                    walkLoop(li, count);
                }
            });
    }

    /**
     * Walk the body until the row states and bank machines repeat
     * (at most kLoopPassCap passes; exact for smaller trip counts),
     * then skip the remaining iterations arithmetically.  Rows still
     * changing at the cap degrade to Unknown.
     */
    void
    walkLoop(std::size_t id, std::uint64_t count)
    {
        const std::size_t begin = program_.loops()[id].begin;
        walkBody(id);  // warm-up pass
        std::uint64_t executed = 1;
        Snapshot before;
        Time loop_start = 0;
        while (executed < count && executed < kLoopPassCap) {
            before = capture();
            loop_start = cursor_;
            walkBody(id);
            ++executed;
            if (sameState(before)) {
                skipIterations(loop_start, count - executed);
                return;
            }
        }
        if (executed >= count)
            return;  // exact: every iteration was walked

        // Cap hit without a fixpoint: anything still in flux after
        // (count - executed) more iterations is beyond this analysis.
        out_.exact = false;
        for (const auto &[key, st] : before.rows) {
            auto it = out_.rows.find(key);
            if (it == out_.rows.end() || !stateEq(it->second, st))
                degrade(key, begin);
        }
        for (const auto &[key, st] : out_.rows)
            if (before.rows.find(key) == before.rows.end())
                degrade(key, begin);
        skipIterations(loop_start, count - executed);
    }

    void
    degrade(std::uint64_t key, std::size_t begin)
    {
        RowState &st = out_.rows[key];
        st = RowState{};
        st.kind = RowStateKind::Unknown;
        st.defIndex = begin;
    }

    /** Advance the cursor over `reps` identity iterations. */
    void
    skipIterations(Time loop_start, std::uint64_t reps)
    {
        const Time body = cursor_ - loop_start;
        const Time skipped = satRepeat(body, reps);
        if (skipped <= 0)
            return;
        for (BankSt &bank : banks_) {
            auto shift = [&](Time &t) {
                if (t >= loop_start)
                    t = satAddT(t, skipped);
            };
            shift(bank.openedAt);
            shift(bank.pending.closedAt);
            shift(bank.pending.openedAt);
        }
        cursor_ = satAddT(cursor_, skipped);
    }

    // ---- consumption and definition ------------------------------------

    /** The row's contents feed a RD, copy, or merge. */
    void
    consume(std::size_t i, BankId b, RowId phys)
    {
        RowState &st = stateOf(b, phys);
        st.consumed = true;
        if (st.kind != RowStateKind::Initial &&
            st.kind != RowStateKind::CopyOf)
            return;
        // Contents trace back to pre-program cell charge: unreliable
        // if a hammer-grade aggressor sits within the blast radius.
        const RowId lo = phys >= 2 ? phys - 2 : 0;
        const RowId hi = std::min<RowId>(phys + 2, geom_.rowsPerBank - 1);
        for (RowId a = lo; a <= hi; ++a) {
            const RowActivity *ra = findRow(fx_, b, a);
            if (ra == nullptr ||
                ra->totalCloses() < kHammerIntentCloses)
                continue;
            add(Code::DfAggressorAsData, i,
                "row %u's contents are consumed as data, but row %u "
                "(distance %d) is closed %llu times by this program "
                "(hammer-grade, >= %llu): the consumed value may "
                "carry disturbance bitflips",
                phys, a, static_cast<int>(a) - static_cast<int>(phys),
                static_cast<unsigned long long>(ra->totalCloses()),
                static_cast<unsigned long long>(kHammerIntentCloses));
            return;
        }
    }

    /** Flag a staged value overwritten before anything read it. */
    void
    checkDeadWrite(std::size_t i, BankId b, RowId phys)
    {
        const auto it = out_.rows.find(rowKey(b, phys));
        if (it == out_.rows.end())
            return;
        const RowState &old = it->second;
        if (old.consumed || (old.kind != RowStateKind::Written &&
                             old.kind != RowStateKind::CopyOf))
            return;
        add(Code::DfDeadWrite, old.defIndex,
            "row %u's value staged here is overwritten at "
            "instruction %zu before anything reads it",
            phys, i);
    }

    void
    define(BankId b, RowId phys, RowState st, std::size_t i)
    {
        st.defIndex = i;
        st.consumed = false;
        stateOf(b, phys) = st;
    }

    // ---- macro-op data effects ------------------------------------------

    void
    doCopy(std::size_t i, BankId b, RowId src, RowId dst)
    {
        pudSubs_[b].insert(geom_.subarrayOf(dst));
        consume(i, b, src);
        checkDeadWrite(i, b, dst);

        RowState v = stateOf(b, src);  // copy: source is unchanged
        switch (v.kind) {
          case RowStateKind::Initial:
            v.kind = RowStateKind::CopyOf;
            v.srcKey = rowKey(b, src);
            break;
          case RowStateKind::Written:
          case RowStateKind::CopyOf:
          case RowStateKind::MajorityOf:
          case RowStateKind::ChargeShared:
          case RowStateKind::Clobbered:
          case RowStateKind::Unknown:
            break;  // value-preserving: dst mirrors src's lattice point
        }
        define(b, dst, v, i);
    }

    /** Canonical merge-input value of one member row. */
    RowState
    valueOf(BankId b, RowId phys)
    {
        RowState v = stateOf(b, phys);
        if (v.kind == RowStateKind::Initial) {
            v.kind = RowStateKind::CopyOf;
            v.srcKey = rowKey(b, phys);
        }
        v.defIndex = 0;
        v.consumed = false;
        return v;
    }

    int
    internMerge(BankId b, std::vector<MergeInput> inputs, int n,
                bool tie, std::size_t i)
    {
        std::string key = format("b%u n%d", b, n);
        for (const MergeInput &in : inputs)
            key += format("|%d:%d:%llu:%d*%d",
                          static_cast<int>(in.value.kind),
                          in.value.dataIndex,
                          static_cast<unsigned long long>(
                              in.value.srcKey),
                          in.value.mergeId, in.weight);
        const auto [it, fresh] =
            mergeIds_.insert({key, static_cast<int>(out_.merges.size())});
        if (fresh) {
            MergeRecord rec;
            rec.bank = b;
            rec.inputs = std::move(inputs);
            rec.groupSize = n;
            rec.tieable = tie;
            rec.instIndex = i;
            out_.merges.push_back(std::move(rec));
        }
        return it->second;
    }

    /**
     * A SiMRA group opens: the sense amplifiers immediately resolve
     * every bitline to the (weighted) majority of the activated cells,
     * so the merge happens at the ACT, before any WR.
     */
    void
    doMerge(std::size_t i, BankId b, const std::vector<RowId> &group,
            RowId anchor_phys)
    {
        const dram::SubarrayId sub = geom_.subarrayOf(anchor_phys);
        bool crosses = false;
        for (RowId r : group)
            crosses |= !geom_.contains(r) || geom_.subarrayOf(r) != sub;
        pudSubs_[b].insert(sub);
        if (crosses) {
            add(Code::DfGroupCrossesSubarray, i,
                "SiMRA activation group [%u, %u] spans a subarray or "
                "bank boundary (subarrays are %u rows): wordline "
                "drivers are per-subarray, so the charge state of "
                "every member is unpredictable",
                group.front(), group.back(), geom_.rowsPerSubarray);
            RowState cl;
            cl.kind = RowStateKind::Clobbered;
            for (RowId r : group)
                if (geom_.contains(r))
                    define(b, r, cl, i);
            return;
        }

        // Member census: staged data, in-place operands the group
        // swallows (an input value whose CopyOf source is itself a
        // member), never-written rows, undefined rows.
        bool staged = false, undef = false;
        for (RowId r : group) {
            const RowState &st = stateOf(b, r);
            staged |= st.kind == RowStateKind::Written ||
                      st.kind == RowStateKind::CopyOf ||
                      st.kind == RowStateKind::MajorityOf;
            undef |= !st.defined();
        }
        bool uncovered_initial = false;
        for (RowId r : group) {
            if (stateOf(b, r).kind != RowStateKind::Initial)
                continue;
            bool covered = false;
            for (RowId o : group)
                covered |= stateOf(b, o).kind == RowStateKind::CopyOf &&
                           stateOf(b, o).srcKey == rowKey(b, r);
            if (covered) {
                if (staged)
                    add(Code::DfGroupOverlap, i,
                        "SiMRA activation group [%u, %u] contains "
                        "operand row %u itself alongside copies of "
                        "it: the merge destroys the operand's "
                        "original contents",
                        group.front(), group.back(), r);
            } else {
                uncovered_initial = true;
            }
        }

        for (RowId r : group)
            consume(i, b, r);

        if (!staged) {
            // Merging only never-written charge is the deliberate
            // entropy-source idiom (QUAC-TRNG): defined by the device,
            // unknowable statically, and not worth a diagnostic.
            RowState cs;
            cs.kind = RowStateKind::ChargeShared;
            for (RowId r : group)
                define(b, r, cs, i);
            return;
        }

        if (undef || uncovered_initial) {
            add(Code::DfMajorityUninitInput, i,
                "SiMRA merge over [%u, %u] mixes staged operand data "
                "with %s rows: every bitline resolves against charge "
                "the program never defined, so the whole block ends "
                "charge-shared",
                group.front(), group.back(),
                undef ? "undefined" : "never-written");
            RowState cs;
            cs.kind = RowStateKind::ChargeShared;
            for (RowId r : group)
                define(b, r, cs, i);
            return;
        }

        // All inputs are known values: group by identity and weigh.
        std::vector<MergeInput> inputs;
        for (RowId r : group) {
            const RowState v = valueOf(b, r);
            bool found = false;
            for (MergeInput &in : inputs) {
                if (in.value.sameValue(v)) {
                    ++in.weight;
                    found = true;
                }
            }
            if (!found)
                inputs.push_back({v, 1});
        }
        std::sort(inputs.begin(), inputs.end(),
                  [](const MergeInput &a, const MergeInput &b) {
                      return valueLess(a.value, b.value);
                  });

        if (inputs.size() == 1) {
            // Unanimous: the merge is a multi-row restore of one value.
            for (RowId r : group)
                define(b, r, inputs.front().value, i);
            return;
        }

        std::vector<int> weights;
        for (const MergeInput &in : inputs)
            weights.push_back(in.weight);
        const int n = static_cast<int>(group.size());
        const bool tie = semantics::tieable(weights, n);
        const int id = internMerge(b, std::move(inputs), n, tie, i);
        if (tie) {
            add(Code::DfMajorityTie, i,
                "replication weights of the SiMRA merge over [%u, %u] "
                "admit a bitline tie (a subset of weights sums to "
                "%d): tied bitlines float at half charge and resolve "
                "unpredictably on real chips",
                group.front(), group.back(), n / 2);
        }
        RowState mj;
        mj.kind = RowStateKind::MajorityOf;
        mj.mergeId = id;
        for (RowId r : group)
            define(b, r, mj, i);
    }

    // ---- instruction handlers -------------------------------------------

    void
    act(std::size_t i, const Inst &inst)
    {
        if (inst.bank >= cfg_.banks || inst.row >= cfg_.rowsPerBank())
            return;  // protocol errors are the Walker's business
        BankSt &bank = banks_[inst.bank];
        const RowId phys = mapping_.toPhysical(inst.row);
        if (bank.isOpen())
            return;  // ACT-while-open fatals at execution time

        const dram::BankProtocol::Step s = bank.act(cfg_, cursor_, phys);
        if (s.transition == dram::Transition::SimraGroup)
            doMerge(i, inst.bank, bank.openRows, phys);
        else if (s.transition == dram::Transition::ComraCopy)
            doCopy(i, inst.bank, s.src, s.dst);
    }

    void
    pre(BankId b)
    {
        banks_[b].pre(cursor_);
    }

    void
    rd(std::size_t i, const Inst &inst)
    {
        if (inst.bank >= cfg_.banks)
            return;
        BankSt &bank = banks_[inst.bank];
        if (!bank.isOpen())
            return;  // RdOnClosedBank is the Walker's error
        const RowId phys = bank.openRows.front();
        const RowState &st = stateOf(inst.bank, phys);
        if (!st.defined()) {
            add(Code::DfReadUndefined, i,
                "RD returns row %u whose contents are %s: the "
                "collected bits carry no program-defined value",
                phys, name(st.kind));
        } else if (st.kind == RowStateKind::Initial) {
            add(Code::DfReadBeforeWrite, i,
                "RD returns row %u, which the program never wrote: "
                "the result is whatever the host staged before "
                "execution",
                phys);
        }
        consume(i, inst.bank, phys);
    }

    void
    wr(std::size_t i, const Inst &inst)
    {
        if (inst.bank >= cfg_.banks)
            return;
        BankSt &bank = banks_[inst.bank];
        if (!bank.isOpen())
            return;  // WrOnClosedBank is the Walker's error
        RowState v;
        if (inst.dataIndex >= 0 &&
            inst.dataIndex <
                static_cast<int>(program_.dataTable().size())) {
            v.kind = RowStateKind::Written;
            v.dataIndex = inst.dataIndex;
        } else {
            v.kind = RowStateKind::Unknown;  // WrBadDataIndex fatals
        }
        for (RowId r : bank.openRows) {
            checkDeadWrite(i, inst.bank, r);
            define(inst.bank, r, v, i);
        }
    }

    void
    step(std::size_t i)
    {
        const Inst &inst = program_.insts()[i];
        cursor_ = satAddT(cursor_, std::max<Time>(inst.gap, 0));
        switch (inst.op) {
          case Op::Act:
            act(i, inst);
            break;
          case Op::Pre:
            if (inst.bank < cfg_.banks)
                pre(inst.bank);
            break;
          case Op::PreAll:
            for (BankId b = 0; b < cfg_.banks; ++b)
                pre(b);
            break;
          case Op::Rd:
            rd(i, inst);
            break;
          case Op::Wr:
            wr(i, inst);
            break;
          case Op::Ref:
            for (BankSt &bank : banks_)
                bank.dropPending();
            break;
          case Op::Nop:
          case Op::LoopBegin:
          case Op::LoopEnd:
            break;
        }
    }

    /**
     * End-of-program analysis.  Live-out values are *not* dead writes
     * (they are what the host DMAs back), but a staged row stranded on
     * the far side of a subarray boundary from all the PuD activity is
     * the historic control-row clobber: `base - 1` crossing into the
     * previous subarray writes a row no macro-op will ever use.
     */
    void
    finish()
    {
        for (const auto &[key, st] : out_.rows) {
            if (st.kind != RowStateKind::Written || st.consumed)
                continue;
            const BankId b = static_cast<BankId>(key >> 32);
            const RowId phys = static_cast<RowId>(key & 0xffffffffu);
            const auto it = pudSubs_.find(b);
            if (it == pudSubs_.end() || it->second.empty())
                continue;
            const dram::SubarrayId sub = geom_.subarrayOf(phys);
            if (it->second.count(sub))
                continue;  // its own subarray sees PuD activity
            const bool last_of_sub =
                (phys + 1) % geom_.rowsPerSubarray == 0;
            const bool first_of_sub = phys % geom_.rowsPerSubarray == 0;
            if ((last_of_sub && it->second.count(sub + 1)) ||
                (first_of_sub && sub > 0 &&
                 it->second.count(sub - 1))) {
                add(Code::DfControlRowClobber, st.defIndex,
                    "row %u is written but never consumed, and it "
                    "sits on the boundary of subarray %u while all "
                    "PuD activity runs in the adjacent subarray: "
                    "likely an off-by-one control-row address "
                    "crossing the subarray edge",
                    phys, sub);
            }
        }
    }


    const Program &program_;
    const dram::DeviceConfig &cfg_;
    dram::RowMapping mapping_;
    semantics::Geometry geom_;
    const ProgramEffects &fx_;
    DataflowResult &out_;
    std::vector<BankSt> banks_;
    std::map<BankId, std::set<dram::SubarrayId>> pudSubs_;
    std::map<std::string, int> mergeIds_;
    std::set<std::pair<int, std::size_t>> seen_;
    Time cursor_ = 0;
};

} // namespace

DataflowResult
analyzeDataflow(const bender::Program &program,
                const dram::DeviceConfig &cfg, const ProgramEffects *fx)
{
    DataflowResult out;
    if (fx != nullptr) {
        DfWalker(program, cfg, *fx, out).run();
    } else {
        const ProgramEffects local = summarizeEffects(program, cfg);
        DfWalker(program, cfg, local, out).run();
    }
    return out;
}

} // namespace pud::lint
