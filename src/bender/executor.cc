#include "bender/executor.h"

#include <algorithm>
#include <chrono>

#include "lint/linter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/saturate.h"

namespace pud::bender {

namespace {

/** Cap on up-front ExecResult::reads reservation (entries). */
constexpr std::uint64_t kReadReserveCap = 1ULL << 20;

/**
 * Longest loop body (in instructions, LoopEnd included) that keeps a
 * prefix log.  Probe patterns are four commands long; a log grows with
 * the body -- a SiMRA group's close alone logs hundreds of deposits --
 * and keeps its buffers for the executor's lifetime.
 */
constexpr std::size_t kPrefixLogBody = 16;

/** Bump a prefix-log counter in the stats and the metrics. */
void
countPrefix(std::uint64_t &stat, const char *metric)
{
    ++stat;
    if (obs::metricsOn()) [[unlikely]]
        obs::metrics().add(obs::metrics().counterId(metric));
}

} // namespace

void
Executor::execOne(const Program &program, const Inst &inst, Time &cursor,
                  ExecResult &result)
{
    cursor += inst.gap;
    switch (inst.op) {
      case Op::Act:
        device_->act(cursor, inst.bank, inst.row);
        break;
      case Op::Pre:
        device_->pre(cursor, inst.bank);
        break;
      case Op::PreAll:
        device_->preAll(cursor);
        break;
      case Op::Rd:
        result.reads.push_back(device_->rd(cursor, inst.bank));
        break;
      case Op::Wr:
        if (inst.dataIndex < 0 ||
            inst.dataIndex >=
                static_cast<int>(program.dataTable().size())) {
            fatal("Executor: Wr with invalid data index %d",
                  inst.dataIndex);
        }
        device_->wr(cursor, inst.bank,
                    program.dataTable()[inst.dataIndex]);
        break;
      case Op::Ref:
        device_->ref(cursor);
        break;
      case Op::Nop:
        break;
      case Op::LoopBegin:
      case Op::LoopEnd:
        panic("Executor: loop marker reached execOne");
    }
}

void
Executor::execLoop(const Program &program, std::size_t loop_index,
                   std::uint64_t n, Time &cursor, ExecResult &result)
{
    const BodyClass cls = program.loops()[loop_index].cls;
    const BodyCost &cost = costs_.loops[loop_index];

    auto body = [&] { execBody(program, loop_index, cursor, result); };

    // Recording an outer loop runs its body fully naively once, so it
    // only pays off when that beats letting the inner loops fast-path
    // across (n - 2) live iterations.  For flat bodies the inequality
    // is trivially true.
    const bool eligible =
        fastPath_ && !recording_ && cls != BodyClass::Naive &&
        n >= kFastPathThreshold &&
        cost.naiveCost <= satMul(cost.fastCost, n - 2);

    if (!eligible) {
        // Only a loop that *could* have fast-pathed is an interesting
        // fallback; short trips inside naive bodies are just noise.
        if (fastPath_ && !recording_ && n >= kFastPathThreshold) {
            if (obs::metricsOn()) [[unlikely]] {
                static const obs::CounterId c =
                    obs::metrics().counterId(
                        "executor.naive_fallbacks");
                obs::metrics().add(c);
            }
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event(
                    "naive_fallback",
                    {{"loop", loop_index},
                     {"trip", n},
                     {"reason", cls == BodyClass::Naive
                                    ? "body-class"
                                    : "cost-model"}});
        }
        for (std::uint64_t it = 0; it < n; ++it)
            body();
        return;
    }

    std::uint64_t it = 0;
    int strikes = 0;

    // On a run that repeats the last run's shape, the first chunk of a
    // short, flat, REF-free top-level loop comes from the loop's prefix
    // log when the device passes its guards, and fills the log
    // otherwise; a shape's first run leaves the logs alone, so a
    // program that runs once never pays for logging (DESIGN.md §4.2).
    const LoopNode &node = program.loops()[loop_index];
    dram::Device::PrefixLog *log =
        repeatRun_ && node.parent == Program::npos &&
                cls == BodyClass::Simple &&
                node.end - node.begin <= kPrefixLogBody
            ? &prefixLog(loop_index)
            : nullptr;

    // Each chunk: two warm-up iterations reach steady state (CoMRA
    // copies settle, side-alternation state stabilizes), one recorded
    // iteration captures the periodic deltas, then the remainder
    // replays arithmetically.  A REF-free body replays to completion
    // in one chunk; a REF-bearing body replays until a refresh is
    // about to land on a loop-damaged row (phase break), executes that
    // iteration live, and re-records.  A body whose refreshes keep
    // colliding with its own rows never settles, nor does one whose
    // record can never replay (a REF with TRR on, a mitigation hook)
    // -- after two fruitless chunks we stop re-recording and finish
    // naively.
    while (n - it >= kFastPathThreshold && strikes < 2) {
        const Time chunk_start = cursor;
        const dram::Device::LoopRecord *recorded;
        if (log != nullptr && device_->applyPrefixLog(*log, chunk_start)) {
            cursor += log->duration();
            recorded = &log->record();
            countPrefix(stats_.prefixReuses, "executor.prefix_reuses");
        } else {
            const bool logging =
                log != nullptr && device_->beginPrefixLog(*log, chunk_start);
            body();
            body();
            device_->beginLoopRecording();
            recording_ = true;
            body();
            recording_ = false;
            recorded = &device_->endLoopRecording();
            if (logging && device_->endPrefixLog(cursor)) {
                recorded = &log->record();
                countPrefix(stats_.prefixFills, "executor.prefix_fills");
            }
        }
        log = nullptr;
        const dram::Device::LoopRecord &rec = *recorded;
        it += 3;
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event("fastpath_record",
                               {{"loop", loop_index},
                                {"it", it},
                                {"quiescent", rec.quiescent}});

        if (!rec.quiescent) {
            ++strikes;
            continue;
        }

        const std::uint64_t replayed =
            device_->replayLoopIterations(rec, n - it);
        if (replayed > 0) {
            const Time period = cost.duration;
            const Time skipped = satMulT(period, replayed);
            // Only what the recorded iteration stamped recurs in every
            // skipped one: a row the warm-ups alone closed keeps its
            // stamp.
            device_->shiftLoopTimestamps(cursor - period, skipped);
            cursor += skipped;
            it += replayed;
            result.fastPathIterations += replayed;
            stats_.fastPathIterations += replayed;
            if (obs::metricsOn()) [[unlikely]] {
                static const obs::CounterId c =
                    obs::metrics().counterId(
                        "executor.fastpath_iterations");
                obs::metrics().add(c, replayed);
            }
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event("fastpath_replay",
                                   {{"loop", loop_index},
                                    {"replayed", replayed},
                                    {"remaining", n - it}});
        }
        if (it >= n)
            return;

        // Phase break: run the refresh-colliding iteration live, then
        // try another chunk if enough trip count remains.
        ++stats_.phaseBreaks;
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("executor.phase_breaks");
            obs::metrics().add(c);
        }
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event(
                "phase_break",
                {{"loop", loop_index}, {"it", it}});
        body();
        ++it;
        strikes = replayed >= kFastPathThreshold ? 0 : strikes + 1;
    }

    if (it < n && strikes >= 2 && obs::traceOn()) [[unlikely]]
        obs::trace().event("naive_fallback",
                           {{"loop", loop_index},
                            {"trip", n - it},
                            {"reason", "strikes"}});
    while (it < n) {
        body();
        ++it;
    }
}

void
Executor::execBody(const Program &program, std::size_t loop_id,
                   Time &cursor, ExecResult &result)
{
    const auto &insts = program.insts();
    program.forEachInBody(
        loop_id,
        [&](std::size_t i) { execOne(program, insts[i], cursor, result); },
        [&](std::size_t li) {
            execLoop(program, li, insts[program.loops()[li].begin].count,
                     cursor, result);
        });
}

dram::Device::PrefixLog &
Executor::prefixLog(std::size_t loop_index)
{
    PrefixSlot *free = nullptr;
    for (PrefixSlot &slot : prefixLogs_) {
        if (slot.loop == loop_index)
            return slot.log;
        if (slot.loop == Program::npos && free == nullptr)
            free = &slot;
    }
    if (free == nullptr)
        free = &prefixLogs_.emplace_back();
    free->loop = loop_index;
    return free->log;
}

void
Executor::freePrefixLogs()
{
    for (PrefixSlot &slot : prefixLogs_) {
        slot.loop = Program::npos;
        slot.log.clear();
    }
}

bool
Executor::sameShape(const Program &program) const
{
    const auto &insts = program.insts();
    const auto &data = program.dataTable();
    if (!haveShape_ || insts.size() != shapeInsts_.size() ||
        data.size() != shapeDataBits_.size())
        return false;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Inst &a = insts[i];
        const Inst &b = shapeInsts_[i];
        if (a.op != b.op || a.gap != b.gap || a.bank != b.bank ||
            a.row != b.row || a.dataIndex != b.dataIndex ||
            (a.op != Op::LoopBegin && a.count != b.count))
            return false;
    }
    for (std::size_t i = 0; i < data.size(); ++i)
        if (data[i].bits() != shapeDataBits_[i])
            return false;
    return true;
}

ExecResult
Executor::run(const Program &program)
{
    if (!program.balanced())
        fatal("Executor: program has unbalanced loops");

    const bool tracing = obs::traceOn();
    std::chrono::steady_clock::time_point wall_start;
    if (tracing) [[unlikely]] {
        wall_start = std::chrono::steady_clock::now();
        obs::trace().event("program_start",
                           {{"insts", program.insts().size()}});
    }

    // A run repeating the last run's shape keeps its pre-flight verdict
    // and prefix logs; another shape's logs cannot apply.
    repeatRun_ = sameShape(program);
    if (repeatRun_) {
        ++stats_.planCacheHits;
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("executor.plan_cache_hits");
            obs::metrics().add(c);
        }
    } else {
        ++stats_.planCacheMisses;
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("executor.plan_cache_misses");
            obs::metrics().add(c);
        }
        haveShape_ = true;
        shapeInsts_ = program.insts();  // buffers reused
        shapeDataBits_.clear();
        for (const RowData &data : program.dataTable())
            shapeDataBits_.push_back(data.bits());
        shapeLinted_ = false;
        freePrefixLogs();
    }
    // The pre-flight refuses programs the device would fatal on, with
    // a pointer at the bad instruction.  Warnings (deliberately violated
    // timings that match no PuD idiom) are the caller's business -- see
    // lint::lintProgram.
    if (preflight_ && !shapeLinted_) {
        lint::requireClean(program, device_->config(), "Executor");
        shapeLinted_ = true;
    }
    costs_.compute(program);

    // Leave a bus-turnaround gap after whatever ran before.
    Time cursor = device_->now() + units::fromNs(100);
    const Time duration = costs_.total.duration;
    if (duration > kMaxTime - cursor)
        fatal("Executor: program duration (%s%.0f s) would carry the "
              "device clock past the end of its range (%.1f days); "
              "lower the trip counts",
              duration == kMaxTime ? ">= " : "",
              units::toUs(duration) / 1e6,
              units::toUs(kMaxTime) / 86400e6);

    ExecResult result;
    result.reads.reserve(static_cast<std::size_t>(
        std::min(costs_.total.rds, kReadReserveCap)));
    result.startTime = cursor;
    execBody(program, Program::npos, cursor, result);
    device_->flush();
    result.endTime = cursor;

    if (obs::metricsOn()) [[unlikely]] {
        // Device time and read/iteration counts are functions of the
        // program alone -- safe for the deterministic metrics output.
        static const obs::CounterId c_runs =
            obs::metrics().counterId("executor.programs");
        static const obs::HistId h_ns =
            obs::metrics().histId("executor.program_device_ns");
        static const obs::HistId h_reads =
            obs::metrics().histId("executor.program_reads");
        obs::metrics().add(c_runs);
        obs::metrics().observe(
            h_ns, static_cast<std::uint64_t>(units::toNs(
                      result.endTime - result.startTime)));
        obs::metrics().observe(h_reads, result.reads.size());
    }
    if (tracing) [[unlikely]] {
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        obs::trace().event(
            "program_end",
            {{"device_ns",
              static_cast<std::int64_t>(
                  units::toNs(result.endTime - result.startTime))},
             {"wall_s", wall_s},
             {"reads", result.reads.size()},
             {"fastpath_iters", result.fastPathIterations}});
    }
    return result;
}

} // namespace pud::bender
