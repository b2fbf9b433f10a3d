/**
 * @file
 * Test-program representation for the DRAM Bender-like infrastructure.
 *
 * A Program is a straight-line sequence of timestamped DDR commands
 * with (possibly nested) counted loops -- the same abstraction the
 * real DRAM Bender exposes for crafting precisely-timed command
 * sequences, including ones that deliberately violate nominal timing
 * parameters.  Each instruction carries the gap (in ps) from the
 * previous command's issue time, so a program fully determines the
 * command schedule.
 */

#ifndef PUD_BENDER_PROGRAM_H
#define PUD_BENDER_PROGRAM_H

#include <cstdint>
#include <vector>

#include "dram/datapattern.h"
#include "dram/types.h"
#include "util/logging.h"
#include "util/units.h"

namespace pud::bender {

using dram::BankId;
using dram::RowId;
using dram::RowData;

/** Instruction opcodes. */
enum class Op : std::uint8_t
{
    Act,        //!< activate (bank, row) after `gap`
    Pre,        //!< precharge bank
    PreAll,     //!< precharge all banks
    Rd,         //!< read the open row; result collected by the executor
    Wr,         //!< write the open row(s) from the program data table
    Ref,        //!< refresh command
    Nop,        //!< advance time only
    LoopBegin,  //!< repeat up to the matching LoopEnd `count` times
    LoopEnd,
};

/** One program instruction. */
struct Inst
{
    Op op = Op::Nop;
    Time gap = 0;              //!< time since the previous command issue
    BankId bank = 0;
    RowId row = 0;             //!< Act only (logical row address)
    int dataIndex = -1;        //!< Wr only: index into the data table
    std::uint64_t count = 0;   //!< LoopBegin only
};

/** How the executor may run a hot loop body. */
enum class BodyClass : std::uint8_t
{
    /**
     * No REF, RD, or nested loop anywhere in the body: one recorded
     * iteration replays arithmetically for the whole remaining trip
     * count in a single step.
     */
    Simple,
    /**
     * Contains REF and/or nested loops but no RD: still recordable --
     * REF stripe refreshes and nested-loop damage advance by
     * closed-form per-iteration deltas, with a live "phase break"
     * whenever a refresh is about to touch a loop-damaged row.  With
     * TRR on, a body with a REF never replays (nor does any body under
     * a mitigation hook): a flat one runs segment by segment, a nested
     * one records and then runs naively.
     */
    Recorded,
    /** Contains RD: results must be collected per iteration. */
    Naive,
};

/**
 * One loop of a program's loop tree.  Loop ids are LoopBegin order,
 * which is a preorder: a loop's descendants are exactly the ids in
 * (id, next).
 */
struct LoopNode
{
    std::size_t begin = 0;       //!< index of the LoopBegin instruction
    std::size_t end = 0;         //!< matching LoopEnd; npos while open
    std::size_t parent = 0;      //!< enclosing loop id; npos at top level
    std::size_t next = 0;        //!< first loop id after this subtree
    /**
     * RD anywhere in the body (nested loops included) makes it Naive;
     * otherwise a REF or a nested loop makes it Recorded.  This is the
     * fast-path eligibility the executor and pud::lint both read.
     */
    BodyClass cls = BodyClass::Simple;
};

/**
 * A test program.  Built fluently:
 *
 *   Program p;
 *   p.loopBegin(100000)
 *        .act(0, src, tRP)
 *        .pre(0, tRAS)
 *        .act(0, dst, violated)   // CoMRA
 *        .pre(0, tRAS)
 *    .loopEnd();
 *
 * The builder records the loop tree (loops()) as it goes; it is the
 * only place that pairs a LoopBegin with its LoopEnd.
 */
class Program
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    Program &
    act(BankId bank, RowId row, Time gap)
    {
        insts_.push_back({Op::Act, gap, bank, row, -1, 0});
        return *this;
    }

    Program &
    pre(BankId bank, Time gap)
    {
        insts_.push_back({Op::Pre, gap, bank, 0, -1, 0});
        return *this;
    }

    Program &
    preAll(Time gap)
    {
        insts_.push_back({Op::PreAll, gap, 0, 0, -1, 0});
        return *this;
    }

    Program &
    rd(BankId bank, Time gap)
    {
        insts_.push_back({Op::Rd, gap, bank, 0, -1, 0});
        raiseOpenLoops(BodyClass::Naive);
        return *this;
    }

    /**
     * Write the open row(s) from data-table entry `data_index`.  The
     * index must already be registered (addData) -- a dangling index
     * would only surface deep inside the executor, so the builder
     * rejects it at construction time.
     */
    Program &
    wr(BankId bank, int data_index, Time gap)
    {
        if (data_index < 0 ||
            data_index >= static_cast<int>(dataTable_.size()))
            fatal("Program: wr data index %d outside the data table "
                  "(%zu entries); call addData first",
                  data_index, dataTable_.size());
        return wrUnchecked(bank, data_index, gap);
    }

    /**
     * wr() without the build-time data-index check.  Only for tests
     * and demo programs that *want* an invalid instruction (to
     * exercise lint and executor error paths); everything else should
     * use wr().
     */
    Program &
    wrUnchecked(BankId bank, int data_index, Time gap)
    {
        insts_.push_back({Op::Wr, gap, bank, 0, data_index, 0});
        return *this;
    }

    Program &
    ref(Time gap)
    {
        insts_.push_back({Op::Ref, gap, 0, 0, -1, 0});
        raiseOpenLoops(BodyClass::Recorded);
        return *this;
    }

    Program &
    nop(Time gap)
    {
        insts_.push_back({Op::Nop, gap, 0, 0, -1, 0});
        return *this;
    }

    Program &
    loopBegin(std::uint64_t count)
    {
        raiseOpenLoops(BodyClass::Recorded);
        // Every open loop's subtree grows by this one.
        for (std::size_t a = open_; a != npos; a = loops_[a].parent)
            ++loops_[a].next;
        const std::size_t id = loops_.size();
        loops_.push_back({insts_.size(), npos, open_, id + 1,
                          BodyClass::Simple});
        insts_.push_back({Op::LoopBegin, 0, 0, 0, -1, count});
        open_ = id;
        return *this;
    }

    Program &
    loopEnd()
    {
        if (open_ == npos)
            fatal("Program: loopEnd without loopBegin");
        loops_[open_].end = insts_.size();
        open_ = loops_[open_].parent;
        insts_.push_back({Op::LoopEnd, 0, 0, 0, -1, 0});
        return *this;
    }

    /** Register a row image for Wr instructions; returns its index. */
    int
    addData(RowData data)
    {
        dataTable_.push_back(std::move(data));
        return static_cast<int>(dataTable_.size()) - 1;
    }

    /** Patch the trip count of the loop opened by the i-th LoopBegin. */
    void
    setLoopCount(std::size_t loop_index, std::uint64_t count)
    {
        if (loop_index >= loops_.size())
            fatal("Program: no loop with index %zu", loop_index);
        insts_[loops_[loop_index].begin].count = count;
    }

    /**
     * Copy of this program with the i-th loop's trip count patched.
     * This is how sweep harnesses should vary a hammer count: the
     * copies share one *shape*, so the executor pre-flight lints the
     * program once for the whole sweep (bender/executor.h).
     */
    Program
    withLoopCount(std::size_t loop_index, std::uint64_t count) const
    {
        Program copy = *this;
        copy.setLoopCount(loop_index, count);
        return copy;
    }

    /** Number of loops (LoopBegin instructions) in the program. */
    std::size_t loopCount() const { return loops_.size(); }

    /** The loop tree, one entry per loop in LoopBegin order. */
    const std::vector<LoopNode> &loops() const { return loops_; }

    /**
     * Walk the body of loop `id`, or the whole program for id npos:
     * onInst(i) for each command directly inside, onLoop(child) for
     * each loop directly inside, in program order.  An unclosed loop
     * runs to the end of the program, so nothing follows it.
     */
    template <typename OnInst, typename OnLoop>
    void
    forEachInBody(std::size_t id, OnInst &&on_inst,
                  OnLoop &&on_loop) const
    {
        std::size_t i = id == npos ? 0 : loops_[id].begin + 1;
        const std::size_t end =
            id == npos || loops_[id].end == npos ? insts_.size()
                                                 : loops_[id].end;
        std::size_t child = id + 1;  // npos + 1 wraps to loop 0
        while (i < end) {
            if (insts_[i].op != Op::LoopBegin) {
                on_inst(i++);
                continue;
            }
            const LoopNode &loop = loops_[child];
            on_loop(child);
            if (loop.end == npos)
                return;
            i = loop.end + 1;
            child = loop.next;
        }
    }

    const std::vector<Inst> &insts() const { return insts_; }
    const std::vector<RowData> &dataTable() const { return dataTable_; }
    bool balanced() const { return open_ == npos; }

  private:
    /**
     * Raise every open loop's class to at least `cls`.  The walk
     * stops at the first loop already there: its ancestors are too
     * (they nest it, and saw every RD it did).
     */
    void
    raiseOpenLoops(BodyClass cls)
    {
        for (std::size_t a = open_; a != npos && loops_[a].cls < cls;
             a = loops_[a].parent)
            loops_[a].cls = cls;
    }

    std::vector<Inst> insts_;
    std::vector<RowData> dataTable_;
    std::vector<LoopNode> loops_;
    std::size_t open_ = npos;  //!< innermost open loop
};

} // namespace pud::bender

#endif // PUD_BENDER_PROGRAM_H
