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

/**
 * Most distinct segment contents of one loop body that keep a log; a
 * body with more runs the rest live.
 */
constexpr std::size_t kSegmentLogs = 8;

/**
 * A segment log whose failures -- a fill that cannot be reused, a
 * preview that sees the hook refresh -- outnumber its successes by
 * this many stops logging for the rest of the loop.
 */
constexpr unsigned kSegmentDebt = 8;

/** Bump a run-log counter in the stats and the metrics. */
void
countLog(std::uint64_t &stat, const char *metric)
{
    ++stat;
    if (obs::metricsOn()) [[unlikely]]
        obs::metrics().add(obs::metrics().counterId(metric));
}

/** Whether two instructions issue the same command at the same gap. */
bool
sameCommand(const Inst &a, const Inst &b)
{
    return a.op == b.op && a.gap == b.gap && a.bank == b.bank &&
           a.row == b.row && a.dataIndex == b.dataIndex;
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

    // A flat body that can never replay runs segment by segment, and
    // so do a flat REF-bearing body's unrecorded live iterations after
    // its first chunk: the later chunks' warm-ups, the phase breaks and
    // the tail (DESIGN.md §4.2).  The segments are planned on first
    // use, so a loop that replays to its end in one chunk pays for no
    // log.  Under a hook that cannot preview, no segment could apply a
    // log, so they run wholly live.  A body that nests loops keeps to
    // the chunks below: their recorded iterations run its inner loops
    // live, which segments would not.
    const LoopNode &node = program.loops()[loop_index];
    const bool flat = node.next == loop_index + 1;
    const bool replayable =
        device_->loopReplayable(cls == BodyClass::Recorded);
    const dram::MitigationHook *hook = device_->mitigation();
    const bool segmented = flat &&
                           (!replayable || cls == BodyClass::Recorded) &&
                           (hook == nullptr || hook->previews());
    bool planned = false;
    auto live = [&] {
        if (!segmented) {
            body();
            return;
        }
        if (!planned) {
            planSegments(program, loop_index);
            planned = true;
        }
        execSegments(program, loop_index, cursor, result);
    };
    if (flat && !replayable) {
        for (std::uint64_t it = 0; it < n; ++it)
            live();
        return;
    }

    std::uint64_t it = 0;
    int strikes = 0;

    // On a run that repeats the last run's shape, the first chunk of a
    // short, flat, REF-free top-level loop comes from the loop's prefix
    // log when the device passes its guards, and fills the log
    // otherwise; a shape's first run leaves the logs alone, so a
    // program that runs once never pays for logging (DESIGN.md §4.2).
    dram::Device::RunLog *log =
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
    // colliding with its own rows never settles, nor does a nested one
    // whose record can never replay (Device::loopReplayable) -- after
    // two fruitless chunks we stop re-recording and finish naively.
    while (n - it >= kFastPathThreshold && strikes < 2) {
        const Time chunk_start = cursor;
        const dram::Device::LoopRecord *recorded;
        if (log != nullptr && device_->applyLog(*log, chunk_start) ==
                                  dram::Device::LogApply::Applied) {
            cursor += log->duration();
            recorded = &log->record();
            countLog(stats_.prefixReuses, "executor.prefix_reuses");
        } else {
            const bool logging =
                log != nullptr && device_->beginLog(*log, chunk_start);
            if (it == 0) {  // the first chunk
                body();
                body();
            } else {
                live();
                live();
            }
            device_->beginLoopRecording();
            recording_ = true;
            body();
            recording_ = false;
            recorded = &device_->endLoopRecording();
            if (logging && device_->endPrefixLog(*log, cursor)) {
                recorded = &log->record();
                countLog(stats_.prefixFills, "executor.prefix_fills");
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
        live();
        ++it;
        strikes = replayed >= kFastPathThreshold ? 0 : strikes + 1;
    }

    if (it < n && strikes >= 2 && obs::traceOn()) [[unlikely]]
        obs::trace().event("naive_fallback",
                           {{"loop", loop_index},
                            {"trip", n - it},
                            {"reason", "strikes"}});
    while (it < n) {
        live();
        ++it;
    }
}

void
Executor::planSegments(const Program &program, std::size_t loop_index)
{
    const auto &insts = program.insts();
    const LoopNode &node = program.loops()[loop_index];

    // The body's segments -- the runs of commands between its REFs --
    // share a log when they issue the same commands.
    segments_.clear();
    std::size_t logs = 0;
    for (std::size_t i = node.begin + 1; i < node.end; ++i) {
        if (insts[i].op == Op::Ref)
            continue;
        std::size_t j = i + 1;
        while (j < node.end && insts[j].op != Op::Ref)
            ++j;
        std::size_t log = 0;
        for (; log < logs; ++log) {
            const SegmentLog &s = segmentLogs_[log];
            if (s.end - s.begin == j - i &&
                std::equal(insts.begin() + i, insts.begin() + j,
                           insts.begin() + s.begin, sameCommand))
                break;
        }
        if (log == logs && logs < kSegmentLogs) {
            if (logs == segmentLogs_.size())
                segmentLogs_.emplace_back();
            SegmentLog &s = segmentLogs_[logs++];
            s.begin = i;
            s.end = j;
            s.next = 0;
            s.debt = 0;
            for (dram::Device::RunLog &way : s.ways)
                way.clear();
        }
        segments_.push_back({i, j, log < logs ? log : Program::npos});
        i = j;
    }
}

void
Executor::execSegments(const Program &program, std::size_t loop_index,
                       Time &cursor, ExecResult &result)
{
    const auto &insts = program.insts();
    const LoopNode &node = program.loops()[loop_index];
    std::size_t i = node.begin + 1;
    for (const Segment &seg : segments_) {
        for (; i < seg.begin; ++i)  // REFs stay live
            execOne(program, insts[i], cursor, result);
        runSegment(program, seg, cursor, result);
        i = seg.end;
    }
    for (; i < node.end; ++i)
        execOne(program, insts[i], cursor, result);
}

void
Executor::runSegment(const Program &program, const Segment &seg,
                     Time &cursor, ExecResult &result)
{
    const auto &insts = program.insts();
    auto live = [&] {
        for (std::size_t i = seg.begin; i < seg.end; ++i)
            execOne(program, insts[i], cursor, result);
    };
    if (seg.log == Program::npos ||
        segmentLogs_[seg.log].debt >= kSegmentDebt) {
        live();
        return;
    }
    SegmentLog &log = segmentLogs_[seg.log];
    const Time start = cursor;
    for (const dram::Device::RunLog &way : log.ways) {
        switch (device_->applyLog(way, start)) {
          case dram::Device::LogApply::Applied:
            cursor += way.duration();
            log.debt -= log.debt > 0 ? 1 : 0;
            countLog(stats_.segmentApplies, "executor.segment_applies");
            return;
          case dram::Device::LogApply::HookFires:
            // Live, the hook refreshes a row, which spoils a fill.
            ++log.debt;
            live();
            return;
          case dram::Device::LogApply::Stale:
            break;
        }
    }
    dram::Device::RunLog &way = log.ways[log.next];
    const bool logging = device_->beginLog(way, start);
    live();
    if (logging && device_->endLog(way, cursor)) {
        log.next = (log.next + 1) % kSegmentWays;
        log.debt -= log.debt > 0 ? 1 : 0;
        countLog(stats_.segmentFills, "executor.segment_fills");
    } else {
        ++log.debt;
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

dram::Device::RunLog &
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
        if (!sameCommand(a, b) ||
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
