#include "bender/plan.h"

#include "util/saturate.h"

namespace pud::bender {

void
RunCosts::compute(const Program &program)
{
    const auto &tree = program.loops();
    loops.assign(tree.size(), BodyCost{});
    total = BodyCost{};

    // Flat costs: each instruction counts toward the innermost loop
    // around it (loops are numbered in LoopBegin order).
    std::size_t open = Program::npos, next = 0;
    for (const Inst &inst : program.insts()) {
        if (inst.op == Op::LoopBegin) {
            open = next++;
            continue;
        }
        if (inst.op == Op::LoopEnd) {
            open = tree[open].parent;
            continue;
        }
        BodyCost &flat = open == Program::npos ? total : loops[open];
        flat.duration += inst.gap;
        flat.rds += inst.op == Op::Rd ? 1 : 0;
        ++flat.naiveCost;
        ++flat.fastCost;
    }

    // Children have larger ids than their parent, so folding each loop
    // into its parent in descending id order completes every loop
    // before it is folded.
    for (std::size_t li = loops.size(); li-- > 0;) {
        const BodyCost &body = loops[li];
        BodyCost &into = tree[li].parent == Program::npos
                             ? total
                             : loops[tree[li].parent];
        const std::uint64_t count = program.insts()[tree[li].begin].count;
        into.duration =
            satAddT(into.duration, satMulT(body.duration, count));
        into.rds = satAdd(into.rds, satMul(count, body.rds));
        into.naiveCost =
            satAdd(into.naiveCost, satMul(count, body.naiveCost));
        // A fast-pathable child costs ~3 live iterations (warm-ups +
        // recording) plus O(1) replay bookkeeping, regardless of its
        // own trip count.
        const bool child_fast = tree[li].cls != BodyClass::Naive &&
                                count >= kFastPathThreshold;
        into.fastCost = satAdd(
            into.fastCost, child_fast ? satAdd(satMul(3, body.fastCost), 16)
                                      : satMul(count, body.fastCost));
    }
}

} // namespace pud::bender
