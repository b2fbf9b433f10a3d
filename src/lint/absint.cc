#include "lint/absint.h"

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "dram/device.h"
#include "dram/mapping.h"
#include "dram/protocol.h"
#include "util/saturate.h"

namespace pud::lint {

namespace {

using bender::Inst;
using bender::Op;
using bender::Program;
using dram::BankId;
using dram::OpenKind;
using dram::RowId;
using dram::TechClass;

/**
 * The abstract walk: the device's per-bank protocol machine
 * (dram::BankProtocol), with loop bodies walked at most twice and the
 * remaining iterations replayed arithmetically.
 */
class AbsWalker
{
  public:
    AbsWalker(const Program &program, const dram::DeviceConfig &cfg,
              ProgramEffects &out, SamplerTrace *trace)
        : program_(program),
          cfg_(cfg),
          mapping_(cfg.profile.mapping),
          out_(out),
          trace_(trace),
          banks_(cfg.banks)
    {
        if (trace_ != nullptr) {
            trace_->window = dram::Device::kTrrWindow;
            trace_->refs.clear();
            trace_->pushes.assign(cfg.banks, 0);
            trace_->truncated = false;
            rings_.resize(cfg.banks);
            pushLogs_.resize(cfg.banks);
            taint_.resize(cfg.banks);
        }
    }

    void
    run()
    {
        walkBody(Program::npos);
        finish();
        out_.duration = cursor_;
        out_.lastRefAt = lastRefAt_;
    }

  private:
    struct BankSt
    {
        dram::BankProtocol proto;
        Time comraDelay = 0;  //!< of a ComraDst open
        Time simraActToPre = 0, simraPreToAct = 0;
        bool pendingRecorded = false;  //!< close already counted
    };

    /** Additive state captured before a steady-state pass. */
    struct Snapshot
    {
        std::uint64_t totalActs, totalRefs;
        std::map<std::uint64_t, RowActivity> rows;
    };

    RowActivity &
    rowOf(BankId b, RowId phys)
    {
        return out_.rows[rowKey(b, phys)];
    }

    void
    walkBody(std::size_t id)
    {
        program_.forEachInBody(
            id,
            [&](std::size_t i) {
                ++out_.steps;
                step(i);
            },
            [&](std::size_t li) {
                ++out_.steps;
                walkLoop(li);
            });
    }

    void
    walkLoop(std::size_t id)
    {
        const bender::LoopNode &loop = program_.loops()[id];
        const std::uint64_t count = program_.insts()[loop.begin].count;
        if (loop.end == Program::npos) {
            // Unbalanced (an error elsewhere): analyze the tail once;
            // counts become a lower bound.
            out_.exact = false;
            walkBody(id);
            return;
        }
        if (count == 0)
            return;
        walkBody(id);  // warm-up pass
        if (count < 2)
            return;
        const Snapshot snap{out_.totalActs, out_.totalRefs, out_.rows};
        const Time loop_start = cursor_;
        std::size_t refs_mark = 0;
        std::vector<std::size_t> push_marks;
        if (trace_ != nullptr) {
            refs_mark = trace_->refs.size();
            push_marks.reserve(pushLogs_.size());
            for (const auto &log : pushLogs_)
                push_marks.push_back(log.size());
        }
        walkBody(id);  // steady-state pass
        if (count > 2) {
            if (trace_ != nullptr)
                replaySamplerTail(refs_mark, push_marks, count - 2);
            replayTail(snap, loop_start, count - 2);
        }
    }

    /**
     * Account for the (reps) iterations beyond the two walked passes:
     * additive fields grow by (reps) times the steady-state delta,
     * min/max fields are already fixed points, and every live
     * timestamp shifts forward by the skipped wall-clock time.
     */
    void
    replayTail(const Snapshot &snap, Time loop_start, std::uint64_t reps)
    {
        const Time body = cursor_ - loop_start;
        const std::uint64_t body_refs =
            out_.totalRefs - snap.totalRefs;

        out_.totalActs = satAdd(
            out_.totalActs,
            satMul(out_.totalActs - snap.totalActs, reps));
        out_.totalRefs = satAdd(
            out_.totalRefs, satMul(body_refs, reps));

        static const RowActivity kZero{};
        for (auto &[key, cur] : out_.rows) {
            const auto it = snap.rows.find(key);
            const RowActivity &old =
                it == snap.rows.end() ? kZero : it->second;
            cur.acts = satAdd(cur.acts,
                               satMul(cur.acts - old.acts, reps));
            for (int c = 0; c < 3; ++c) {
                cur.closes[c] = satAdd(
                    cur.closes[c],
                    satMul(cur.closes[c] - old.closes[c], reps));
                cur.onTime[c] = satAddT(
                    cur.onTime[c],
                    satRepeat(cur.onTime[c] - old.onTime[c], reps));
                // Epoch counts: a body with REFs resets the epoch
                // every iteration, so the steady-state value is the
                // periodic fixed point; a REF-free body's epoch keeps
                // growing and scales like any additive count.  The
                // per-epoch maxima are fixed points either way (they
                // fold at the next REF or at finish()).
                if (body_refs == 0) {
                    cur.epochCloses[c] = satAdd(
                        cur.epochCloses[c],
                        satMul(cur.epochCloses[c] -
                                    old.epochCloses[c],
                                reps));
                }
            }
            cur.comraDelaySum = satAddT(
                cur.comraDelaySum,
                satRepeat(cur.comraDelaySum - old.comraDelaySum, reps));
            cur.simraActToPreSum = satAddT(
                cur.simraActToPreSum,
                satRepeat(cur.simraActToPreSum - old.simraActToPreSum,
                        reps));
            cur.simraPreToActSum = satAddT(
                cur.simraPreToActSum,
                satRepeat(cur.simraPreToActSum - old.simraPreToActSum,
                        reps));
        }

        const Time skipped = satRepeat(body, reps);
        shiftTimes(loop_start, skipped);
        cursor_ = satAddT(cursor_, skipped);
    }

    /**
     * Sampler-trace accounting for the (reps) tail iterations.
     *
     * Soundness: at any tail iteration, the real ring window holds
     * only (a) pushes made by body iterations -- all of which are
     * rows the steady pass pushed (set B) -- and (b) older pre-loop
     * pushes, which can only *age out* relative to the window the
     * steady pass observed.  So every tail REF's window rows are
     * within (steady window  union  B): each steady-pass ref point is
     * duplicated with that union as its (inexact) row set and
     * multiplicity = reps.  Downstream of the loop the live ring no
     * longer matches the real one (it missed the tail pushes), but
     * the real window can only contain live-ring rows plus B; B is
     * added to the bank's taint set, which widens every later ref
     * point the same way.  fillLo stays valid throughout: the real
     * device saw at least as many pushes as the walked passes.
     */
    void
    replaySamplerTail(std::size_t refs_mark,
                      const std::vector<std::size_t> &push_marks,
                      std::uint64_t reps)
    {
        // Per-bank rows pushed by one body iteration (observed on the
        // steady pass).
        std::vector<std::set<RowId>> body_rows(pushLogs_.size());
        for (std::size_t b = 0; b < pushLogs_.size(); ++b) {
            body_rows[b].insert(pushLogs_[b].begin() +
                                    static_cast<std::ptrdiff_t>(
                                        push_marks[b]),
                                pushLogs_[b].end());
        }

        const std::size_t refs_end = trace_->refs.size();
        for (std::size_t k = refs_mark; k < refs_end; ++k) {
            if (trace_->refs.size() >= kMaxSamplerRefPoints) {
                trace_->truncated = true;
                break;
            }
            SamplerRefPoint rp = trace_->refs[k];
            rp.multiplicity = reps;
            rp.exact = false;
            for (RowId r : body_rows[rp.bank])
                rp.window.emplace(r, 0);
            trace_->refs.push_back(std::move(rp));
        }

        for (std::size_t b = 0; b < taint_.size(); ++b) {
            taint_[b].insert(body_rows[b].begin(), body_rows[b].end());
            trace_->pushes[b] = satAdd(
                trace_->pushes[b],
                satMul(pushLogs_[b].size() - push_marks[b], reps));
        }
    }

    /** Shift every timestamp set during the steady-state pass. */
    void
    shiftTimes(Time from, Time delta)
    {
        if (delta <= 0)
            return;
        auto shift = [&](Time &t) {
            if (t >= from)
                t = satAddT(t, delta);
        };
        for (auto &[key, t] : lastActAt_)
            shift(t);
        if (lastRefAt_ >= 0)
            shift(lastRefAt_);
        for (BankSt &bank : banks_) {
            shift(bank.proto.openedAt);
            shift(bank.proto.pending.closedAt);
            shift(bank.proto.pending.openedAt);
        }
    }

    /**
     * Mirror of Device::trrRecord: recordAct() is called at exactly
     * the sites the device pushes into the TRR sampler ring (normal
     * opens, the CoMRA dst ACT, the SiMRA second ACT), so the trace
     * ring tracks the real sampler push-for-push on walked passes.
     */
    void
    samplerPush(BankId b, RowId phys)
    {
        auto &ring = rings_[b];
        ring.push_back(phys);
        if (ring.size() > dram::Device::kTrrWindow)
            ring.pop_front();
        pushLogs_[b].push_back(phys);
        trace_->pushes[b] = satAdd(trace_->pushes[b], 1);
    }

    void
    recordAct(BankId b, RowId phys, std::size_t i)
    {
        RowActivity &ra = rowOf(b, phys);
        if (ra.acts == 0)
            ra.firstActIndex = i;
        ra.acts = satAdd(ra.acts, 1);
        out_.totalActs = satAdd(out_.totalActs, 1);
        if (trace_ != nullptr)
            samplerPush(b, phys);

        const std::uint64_t key = rowKey(b, phys);
        const auto it = lastActAt_.find(key);
        if (it != lastActAt_.end()) {
            const Time gap = cursor_ - it->second;
            if (ra.minInterAct == 0 || gap < ra.minInterAct)
                ra.minInterAct = gap;
            ra.maxInterAct = std::max(ra.maxInterAct, gap);
            it->second = cursor_;
        } else {
            lastActAt_[key] = cursor_;
        }
    }

    void
    recordClose(BankId b, const BankSt &bank, TechClass cls, RowId phys,
                int group_size, Time t_on)
    {
        RowActivity &ra = rowOf(b, phys);
        const int c = static_cast<int>(cls);
        ra.closes[c] = satAdd(ra.closes[c], 1);
        ra.epochCloses[c] = satAdd(ra.epochCloses[c], 1);
        ra.onTime[c] = satAddT(ra.onTime[c], std::max<Time>(t_on, 0));
        ra.maxOnTime[c] =
            std::max(ra.maxOnTime[c], std::max<Time>(t_on, 0));
        switch (cls) {
          case TechClass::Comra:
            ra.comraDelaySum =
                satAddT(ra.comraDelaySum, bank.comraDelay);
            if (ra.minComraDelay < 0 ||
                bank.comraDelay < ra.minComraDelay)
                ra.minComraDelay = bank.comraDelay;
            break;
          case TechClass::Simra:
            ra.simraActToPreSum =
                satAddT(ra.simraActToPreSum, bank.simraActToPre);
            ra.simraPreToActSum =
                satAddT(ra.simraPreToActSum, bank.simraPreToAct);
            ra.maxSimraActToPre =
                std::max(ra.maxSimraActToPre, bank.simraActToPre);
            ra.maxSimraPreToAct =
                std::max(ra.maxSimraPreToAct, bank.simraPreToAct);
            ra.simraN = std::max(ra.simraN, group_size);
            break;
          case TechClass::Conventional:
            break;
        }
    }

    /** Record the close(s) of a row (group) opened as `kind`. */
    void
    recordCloses(BankId b, const BankSt &bank, OpenKind kind,
                 const std::vector<RowId> &rows, Time t_on)
    {
        TechClass cls = TechClass::Conventional;
        if (kind == OpenKind::ComraDst)
            cls = TechClass::Comra;
        else if (kind == OpenKind::Simra)
            cls = TechClass::Simra;
        for (RowId r : rows)
            recordClose(b, bank, cls, r, static_cast<int>(rows.size()),
                        t_on);
    }

    /** Count a resolved pending close as conventional, once. */
    void
    recordPendingClose(BankId b, const BankSt &bank)
    {
        if (bank.pendingRecorded)
            return;
        const Time t_on = std::max<Time>(bank.proto.pending.tOn, 0);
        for (RowId r : bank.proto.pending.rows) {
            RowActivity &ra = rowOf(b, r);
            ra.closes[0] = satAdd(ra.closes[0], 1);
            ra.epochCloses[0] = satAdd(ra.epochCloses[0], 1);
            ra.onTime[0] = satAddT(ra.onTime[0], t_on);
            ra.maxOnTime[0] = std::max(ra.maxOnTime[0], t_on);
        }
    }

    /** Resolve an unconsumed pending close as conventional. */
    void
    dropPending(BankId b, BankSt &bank)
    {
        if (bank.proto.dropPending())
            recordPendingClose(b, bank);
    }

    void
    act(std::size_t i, const Inst &inst)
    {
        if (inst.bank >= cfg_.banks || inst.row >= cfg_.rowsPerBank())
            return;  // protocol errors are the Walker's business
        BankSt &bank = banks_[inst.bank];
        const RowId phys = mapping_.toPhysical(inst.row);
        if (bank.proto.isOpen())
            return;  // ACT-while-open fatals at execution time

        const dram::BankProtocol::Step s =
            bank.proto.act(cfg_, cursor_, phys);
        switch (s.transition) {
          case dram::Transition::SimraIgnored:
            // Chip ignores both commands; the first row stays open
            // with its original activation time.
            return;
          case dram::Transition::SimraGroup:
            // The blip is part of this op, not a real close.
            bank.simraActToPre = s.tOn;
            bank.simraPreToAct = s.gap;
            break;
          case dram::Transition::ComraCopy:
            if (!bank.pendingRecorded) {
                // Retro-tag the source close as the copy cycle's
                // first half.
                RowActivity &src = rowOf(inst.bank, s.src);
                const Time t_on = std::max<Time>(s.tOn, 0);
                src.closes[1] = satAdd(src.closes[1], 1);
                src.epochCloses[1] = satAdd(src.epochCloses[1], 1);
                src.onTime[1] = satAddT(src.onTime[1], t_on);
                src.maxOnTime[1] = std::max(src.maxOnTime[1], t_on);
                src.comraDelaySum = satAddT(src.comraDelaySum, s.gap);
                if (src.minComraDelay < 0 || s.gap < src.minComraDelay)
                    src.minComraDelay = s.gap;
            }
            bank.comraDelay = s.gap;
            break;
          case dram::Transition::Conventional:
            if (s.closed)
                recordPendingClose(inst.bank, bank);
            break;
        }
        recordAct(inst.bank, phys, i);
    }

    void
    pre(BankId b)
    {
        BankSt &bank = banks_[b];
        if (!bank.proto.pre(cursor_))
            return;
        // Non-conventional closes can never reclassify (a SiMRA group
        // pending is multi-row; a CoMRA dst pending re-copying is
        // still one Comra close), so count them immediately.
        const auto &p = bank.proto.pending;
        bank.pendingRecorded = p.kind != OpenKind::Normal;
        if (bank.pendingRecorded)
            recordCloses(b, bank, p.kind, p.rows, p.tOn);
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
          case Op::Ref: {
            out_.totalRefs = satAdd(out_.totalRefs, 1);
            if (lastRefAt_ >= 0) {
                const Time gap = cursor_ - lastRefAt_;
                if (gap > out_.maxRefGap) {
                    out_.maxRefGap = gap;
                    out_.maxRefGapIndex = i;
                }
            }
            if (out_.firstRefAt < 0)
                out_.firstRefAt = cursor_;
            lastRefAt_ = cursor_;
            for (BankId b = 0; b < cfg_.banks; ++b)
                dropPending(b, banks_[b]);
            // Pending closes flushed above belong to the epoch this
            // REF ends; fold it now and open the next one.
            foldEpochs();
            if (trace_ != nullptr)
                recordRefPoints(i);
            break;
          }
          case Op::Rd:
          case Op::Wr:
          case Op::Nop:
          case Op::LoopBegin:
          case Op::LoopEnd:
            break;
        }
    }

    /** Close the current refresh epoch on every row. */
    void
    foldEpochs()
    {
        for (auto &[key, ra] : out_.rows) {
            for (int c = 0; c < 3; ++c) {
                ra.maxEpochCloses[c] = std::max(ra.maxEpochCloses[c],
                                                ra.epochCloses[c]);
                ra.epochCloses[c] = 0;
            }
        }
    }

    /** Snapshot every bank's abstract sampler window at a REF. */
    void
    recordRefPoints(std::size_t i)
    {
        for (BankId b = 0; b < cfg_.banks; ++b) {
            if (trace_->refs.size() >= kMaxSamplerRefPoints) {
                trace_->truncated = true;
                return;
            }
            SamplerRefPoint rp;
            rp.instIndex = i;
            rp.bank = b;
            rp.fillLo = rings_[b].size();
            rp.exact = taint_[b].empty();
            for (RowId r : rings_[b])
                ++rp.window[r];
            for (RowId r : taint_[b])
                rp.window.emplace(r, 0);
            trace_->refs.push_back(std::move(rp));
        }
    }

    void
    finish()
    {
        for (BankId b = 0; b < cfg_.banks; ++b) {
            BankSt &bank = banks_[b];
            const dram::BankProtocol &p = bank.proto;
            if (p.isOpen()) {
                // The row will disturb its neighbours whenever it is
                // eventually closed; count that close now.
                recordCloses(b, bank, p.openKind, p.openRows,
                             cursor_ - p.openedAt);
            }
            dropPending(b, bank);
        }
        // The trailing (REF-less) stretch is an epoch too.
        foldEpochs();
    }

    const Program &program_;
    const dram::DeviceConfig &cfg_;
    dram::RowMapping mapping_;
    ProgramEffects &out_;
    SamplerTrace *trace_;
    std::vector<BankSt> banks_;
    std::map<std::uint64_t, Time> lastActAt_;
    Time cursor_ = 0;
    Time lastRefAt_ = -1;

    // Sampler trace state (only sized when trace_ != nullptr).
    std::vector<std::deque<RowId>> rings_;
    std::vector<std::vector<RowId>> pushLogs_;
    std::vector<std::set<RowId>> taint_;
};

} // namespace

const RowActivity *
findRow(const ProgramEffects &fx, dram::BankId bank, dram::RowId phys)
{
    const auto it = fx.rows.find(rowKey(bank, phys));
    return it == fx.rows.end() ? nullptr : &it->second;
}

ProgramEffects
summarizeEffects(const bender::Program &program,
                 const dram::DeviceConfig &cfg, SamplerTrace *trace)
{
    ProgramEffects fx;
    AbsWalker(program, cfg, fx, trace).run();
    return fx;
}

ProgramEffects
summarizeEffects(const bender::Program &program,
                 const dram::DeviceConfig &cfg)
{
    return summarizeEffects(program, cfg, nullptr);
}

} // namespace pud::lint
