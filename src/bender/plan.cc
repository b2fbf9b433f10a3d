#include "bender/plan.h"

#include "util/saturate.h"

namespace pud::bender {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= kFnvPrime;
}

void
mixInstShape(std::uint64_t &h, const Inst &inst)
{
    mix(h, static_cast<std::uint64_t>(inst.op));
    mix(h, static_cast<std::uint64_t>(inst.gap));
    mix(h, inst.bank);
    mix(h, inst.row);
    mix(h, static_cast<std::uint64_t>(inst.dataIndex) + 1);
    // The trip count is deliberately excluded for LoopBegin: an
    // HC_first bisection's probes differ only there and must share one
    // plan (and one pre-flight lint).
    if (inst.op != Op::LoopBegin)
        mix(h, inst.count);
}

} // namespace

std::uint64_t
shapeHashOf(const Program &program)
{
    std::uint64_t h = kFnvOffset;
    mix(h, program.insts().size());
    for (const Inst &inst : program.insts())
        mixInstShape(h, inst);
    mix(h, program.dataTable().size());
    for (const RowData &data : program.dataTable())
        mix(h, data.bits());
    return h;
}

ExecPlan
ExecPlan::compile(const Program &program)
{
    const auto &insts = program.insts();

    ExecPlan plan;
    plan.loops_.resize(program.loopCount());
    auto summarize = [&](std::size_t id, BodyCost &flat) {
        program.forEachInBody(
            id,
            [&](std::size_t i) {
                flat.duration += insts[i].gap;
                flat.rds += insts[i].op == Op::Rd ? 1 : 0;
                ++flat.naiveCost;
                ++flat.fastCost;
            },
            [](std::size_t) {});
    };
    summarize(Program::npos, plan.top_);
    for (std::size_t li = 0; li < plan.loops_.size(); ++li)
        summarize(li, plan.loops_[li]);

    plan.shapeHash_ = shapeHashOf(program);
    plan.shapeInsts_ = insts;
    for (Inst &inst : plan.shapeInsts_)
        if (inst.op == Op::LoopBegin)
            inst.count = 0;
    plan.dataBits_.reserve(program.dataTable().size());
    for (const RowData &data : program.dataTable())
        plan.dataBits_.push_back(data.bits());
    return plan;
}

bool
ExecPlan::matchesShape(const Program &program) const
{
    const auto &insts = program.insts();
    if (insts.size() != shapeInsts_.size() ||
        program.dataTable().size() != dataBits_.size()) {
        return false;
    }
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Inst &a = insts[i];
        const Inst &b = shapeInsts_[i];
        if (a.op != b.op || a.gap != b.gap || a.bank != b.bank ||
            a.row != b.row || a.dataIndex != b.dataIndex) {
            return false;
        }
        if (a.op != Op::LoopBegin && a.count != b.count)
            return false;
    }
    for (std::size_t i = 0; i < dataBits_.size(); ++i)
        if (program.dataTable()[i].bits() != dataBits_[i])
            return false;
    return true;
}

void
RunCosts::compute(const ExecPlan &plan, const Program &program)
{
    const auto &tree = program.loops();
    loops = plan.loops();
    total = plan.top();

    // Children have larger ids than their parent (loops are numbered
    // in LoopBegin order), so folding each loop into its parent in
    // descending id order completes every loop before it is folded.
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
