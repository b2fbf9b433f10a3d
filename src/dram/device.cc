#include "dram/device.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pud::dram {

namespace {

// Fraction of the calibrated factor spread assigned to the row level
// vs the cell level.  Per-cell heterogeneity is what makes combined
// RowHammer + PuDHammer patterns (paper §6) only *partially* share
// damage: the cell that is most vulnerable to RowHammer is often not
// the one most vulnerable to CoMRA/SiMRA (paper Obs. 23).
constexpr double kRowShare = 0.8;
constexpr double kCellShare = 0.6;  // sqrt(0.8^2 + 0.6^2) = 1

// Probability that a cell's conventional-class flip direction is the
// dominant 0 -> 1 (Obs. 14 for RowHammer).
constexpr double kConvZeroToOneFraction = 0.60;

// Probability that a cell's SiMRA flip direction is the dominant
// 1 -> 0 (Obs. 14).
constexpr double kSimraOneToZeroFraction = 0.90;

// Per-N jitter of the SiMRA factor, making the HC_first reduction
// non-monotonic in N per victim row (paper §5.3).
constexpr double kSimraPerNJitterSigma = 0.30;

/** Move every time a bank's protocol state holds by `by`. */
void
shiftProtocol(BankProtocol &proto, Time by)
{
    proto.openedAt += by;
    proto.pending.closedAt += by;
    proto.pending.openedAt += by;
}

} // namespace

Device::Device(DeviceConfig cfg)
    : cfg_(std::move(cfg)),
      cal_(calibrate(cfg_.profile)),
      mapping_(cfg_.profile.mapping),
      disturb_(cfg_),
      temperature_(cfg_.temperature),
      trrRng_(Rng(cfg_.seed).fork(0x7272)),
      noiseRng_(Rng(cfg_.seed).fork(0x4E01))
{
    if (cfg_.banks == 0 || cfg_.subarraysPerBank == 0 ||
        cfg_.rowsPerSubarray == 0 || cfg_.cols == 0) {
        fatal("Device: degenerate geometry");
    }
    if ((cfg_.rowsPerSubarray & (cfg_.rowsPerSubarray - 1)) != 0)
        fatal("Device: rowsPerSubarray must be a power of two");
    subarrayShift_ = std::countr_zero(cfg_.rowsPerSubarray);

    // Banks start as empty shells and rows materialize on first touch
    // (populateRow): an idle module costs O(1) memory and construction
    // time, which is what lets fleet-scale population sweeps build one
    // Device per shard without paying for the ~10^4 rows a sweep never
    // hammers.
    banks_.resize(cfg_.banks);
}

void
Device::touchBank(BankState &bank)
{
    if (!bank.rows.empty()) [[likely]]
        return;
    bank.rows.resize(cfg_.rowsPerBank());
    bank.trrRing.assign(kTrrWindow, kNoRow);
}

void
Device::populateRow(BankState &bank, RowId r, RowDraw what)
{
    const CalibratedDistributions &cal = cal_;
    const bool fresh = what != RowDraw::Factors;
    const bool factors = what != RowDraw::Thresholds;

    const double comra_row_sigma = kRowShare * cal.comraFactorSigma;
    const double comra_cell_sigma = kCellShare * cal.comraFactorSigma;

    // Counter-based stream keyed by (seed, bank, row): no draw depends
    // on any other row's draws, so materialization order -- lazy,
    // eager, or any interleaving -- cannot change the population.
    Rng rng = Rng::keyed(cfg_.seed, bankIndex(bank) + 1, r + 1);

    // Every draw below is taken in every mode, so the stream stays in
    // step; a lognormal whose value is not wanted skips its math but
    // still takes Box-Muller's two uniforms.
    auto log_normal = [&rng](bool want, double median, double sigma) {
        if (want)
            return rng.logNormalMedian(median, sigma);
        rng.next();
        rng.next();
        return 0.0;
    };

    Row &row = bank.rows[r];
    if (fresh) {
        row.populated = true;
        bank.populatedIdx.push_back(r);
        ++populatedRows_;
        row.data = RowData(cfg_.cols);
        row.cells.resize(cfg_.weakCellsPerRow);
    }
    row.factorsDrawn = factors;

    const double base_row =
        std::max(100.0, log_normal(fresh, cal.rhMedian, cal.rhSigma));
    // CoMRA amplifies read disturbance for essentially every row
    // (Obs. 2: 99% of rows see a lower HC_first), so the row-level
    // gain is floored just above 1.
    const double comra_row = std::max(
        1.05, log_normal(factors, cal.comraFactorMedian, comra_row_sigma));

    double simra_row = 1.0;
    if (cfg_.profile.supportsSimra) {
        if (rng.chance(cal.simraExtremeFraction)) {
            simra_row =
                log_normal(factors, cal.simraExtremeMedian,
                           kRowShare * cal.simraExtremeSigma);
        } else {
            simra_row =
                log_normal(factors, cal.simraRegularMedian,
                           kRowShare * cal.simraRegularSigma);
        }
        simra_row = std::max(0.8, simra_row);
    }

    for (int c = 0; c < cfg_.weakCellsPerRow; ++c) {
        WeakCell &cell = row.cells[c];

        // Distinct column per cell (a redraw re-derives the same ones).
        for (;;) {
            cell.col = static_cast<ColId>(rng.below(cfg_.cols));
            bool dup = false;
            for (int k = 0; k < c; ++k)
                if (row.cells[k].col == cell.col)
                    dup = true;
            if (!dup)
                break;
        }

        const double mult_log = c == 0 ? 0.0 : rng.uniform(0.08, 1.3);
        const double comra = log_normal(factors, comra_row, comra_cell_sigma);
        if (factors)
            cell.comraFactor = static_cast<float>(std::max(1.02, comra));

        if (cfg_.profile.supportsSimra) {
            const double cell_simra = std::max(
                0.3, log_normal(factors, simra_row,
                                kCellShare * cal.simraRegularSigma));
            for (int n = 0; n < 5; ++n) {
                const double f =
                    log_normal(factors, cell_simra, kSimraPerNJitterSigma);
                if (factors)
                    cell.simraFactor[n] =
                        static_cast<float>(std::max(0.2, f));
            }
        }

        const double temp_slope = rng.uniform(-0.35, 0.5);
        const double upper_share = rng.uniform(0.38, 0.62);
        const double dst_role = log_normal(factors, 1.0, 0.04);
        if (factors)
            cell.dstRoleGain = static_cast<float>(dst_role);
        const bool conv_zero_to_one = rng.chance(kConvZeroToOneFraction);
        const bool simra_one_to_zero = rng.chance(kSimraOneToZeroFraction);
        if (!fresh)
            continue;

        cell.baseHc = static_cast<float>(
            base_row * (c == 0 ? 1.0 : std::exp(mult_log)));
        cell.tempSlopeConv = static_cast<float>(temp_slope);
        cell.upperShare = static_cast<float>(upper_share);
        cell.dirConv = conv_zero_to_one ? FlipDirection::ZeroToOne
                                        : FlipDirection::OneToZero;
        cell.dirSimra = simra_one_to_zero ? FlipDirection::OneToZero
                                          : FlipDirection::ZeroToOne;
        cell.resetDamage();
    }
}

void
Device::reset(std::uint64_t seed)
{
    if (recorder_.active)
        fatal("Device::reset: loop recording active");

    cfg_.seed = seed;

    for (BankState &bank : banks_) {
        if (bank.rows.empty()) {
            // Never-touched shell: nothing to clear, and leaving it
            // empty preserves the lazy first-touch cost profile.
            continue;
        }
        for (RowId r : bank.populatedIdx)
            bank.rows[r] = Row{};
        bank.populatedIdx.clear();

        bank.proto = BankProtocol{};
        bank.open = OpenConditions{};
    }
    resetTrrSampler();

    // The disturbance model's only per-module state is its close memo,
    // whose cell pointers the cleared rows just invalidated: the new
    // data epoch makes it start over (its config copy never reads the
    // seed); cal_ depends on the family only.
    ++dataEpoch_;
    temperature_ = cfg_.temperature;
    trrEnabled_ = false;
    now_ = 0;
    refCounter_ = 0;
    trrRng_ = Rng(cfg_.seed).fork(0x7272);
    noiseRng_ = Rng(cfg_.seed).fork(0x4E01);
    counters_ = DeviceCounters{};
    populatedRows_ = 0;
    stampedRows_.clear();
    mitigation_ = nullptr;
    mitigationRefresh_.clear();
}

void
Device::materializeAllRows()
{
    for (BankState &bank : banks_) {
        touchBank(bank);
        for (RowId r = 0; r < cfg_.rowsPerBank(); ++r)
            rowWithFactors(bank, r);
    }
}

const std::vector<WeakCell> &
Device::weakCells(BankId bank, RowId logical_row) const
{
    // Lazy materialization is an internal cache: logically const.
    auto *self = const_cast<Device *>(this);
    return self
        ->rowWithFactors(self->banks_[bank], toPhysical(logical_row))
        .cells;
}

void
Device::advanceTime(Time t)
{
    if (t < now_)
        fatal("Device: command time went backwards (%lld < %lld)",
              static_cast<long long>(t), static_cast<long long>(now_));
    now_ = t;
}

void
Device::restoreRow(BankState &bank, RowId physical)
{
    Row &row = rowAt(bank, physical);
    noteLoopTouched(bank, physical, true);
    for (WeakCell &cell : row.cells) {
        if (cell.flipped()) {
            row.data.toggle(cell.col);
            ++dataEpoch_;
        }
        cell.resetDamage();
    }
    disturb_.noteReset(row);
}

RowData
Device::viewOf(const Row &row)
{
    RowData out = row.data;
    for (const WeakCell &cell : row.cells)
        if (cell.flipped())
            out.toggle(cell.col);
    return out;
}

void
Device::majorityMerge(BankState &bank)
{
    const std::vector<RowId> &open = bank.proto.openRows;
    if (open.size() < 2)
        return;
    // The majority of identical rows is that row: a steady-state SiMRA
    // group re-merges nothing, and its closes stay memoized.
    const RowData &first = bank.rows[open.front()].data;
    if (std::all_of(open.begin() + 1, open.end(), [&](RowId r) {
            return bank.rows[r].data == first;
        }))
        return;
    ++dataEpoch_;

    // Resolve into the first open row (the kernel allows an output
    // that is also an input), then copy it over the rest: no
    // allocation once the scratch pointer list has grown.
    mergeInputs_.clear();
    for (RowId r : open)
        mergeInputs_.push_back(&bank.rows[r].data);
    RowData &merged = bank.rows[open.front()].data;
    merged.assignMajority(mergeInputs_);
    for (std::size_t i = 1; i < open.size(); ++i)
        bank.rows[open[i]].data = merged;
}

void
Device::trrRecord(BankState &bank, RowId physical)
{
    const RowId evicted = bank.trrRing[bank.trrPos];
    if (evicted != kNoRow) {
        // A full ring forgetting an aggressor is exactly how TRR
        // bypass patterns win (Obs. 24-26) -- worth a trace event.
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("device.trr_evictions");
            obs::metrics().add(c);
        }
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event(
                "trr_evict",
                {{"bank", static_cast<std::uint64_t>(
                              bankIndex(bank))},
                 {"evicted", static_cast<std::uint64_t>(evicted)},
                 {"row", static_cast<std::uint64_t>(physical)}});
    }
    bank.trrRing[bank.trrPos] = physical;
    bank.trrPos = (bank.trrPos + 1) % kTrrWindow;
    if (bank.trrFill < kTrrWindow)
        ++bank.trrFill;
    if (recorder_.active)
        loopRecord_.samplerActs[bankIndex(bank)].push_back(physical);
    if (runLog_ != nullptr) [[unlikely]]
        logFill_.pushes.emplace_back(bankIndex(bank), physical);
}

void
Device::resetTrrSampler()
{
    for (BankState &bank : banks_) {
        std::fill(bank.trrRing.begin(), bank.trrRing.end(), kNoRow);
        bank.trrPos = 0;
        bank.trrFill = 0;
    }
}

void
Device::refreshRow(BankState &bank, RowId physical)
{
    // A pristine row holds full charge and no damage: refreshing it is
    // a no-op, and skipping keeps stripe REFs from materializing every
    // row they sweep (which would defeat lazy population).  Such a row
    // is never loop-tracked either, so replay quiescence is unaffected.
    if (physical >= bank.rows.size() ||
        !bank.rows[physical].populated)
        return;
    if (recorder_.active) {
        // Refreshes are aperiodic (the stripe rotates, TRR draws are
        // random): log the target for the quiescence check, and keep
        // its restoreRow from marking the row as body-touched.
        recorder_.refreshTargets.emplace_back(bankIndex(bank),
                                              physical);
        recorder_.inRefresh = true;
    }
    restoreRow(bank, physical);
    recorder_.inRefresh = false;
    bank.rows[physical].lastSide = 0;
}

void
Device::applyPendingClose(BankState &bank, const BankProtocol::Step *copy)
{
    // The event borrows the pending rows (returned below), so a close
    // allocates nothing.
    CloseEvent ev;
    ev.rows.swap(bank.proto.pending.rows);
    switch (bank.proto.pending.kind) {
      case OpenKind::ComraDst:
        ev.cls = TechClass::Comra;
        ev.comraDelay = bank.open.comraDelay;
        ev.comraPartner = bank.open.comraPartner;
        ev.comraDstRole = true;
        break;
      case OpenKind::Simra:
        ev.cls = TechClass::Simra;
        ev.simraN = static_cast<int>(ev.rows.size());
        ev.simraActToPre = bank.open.simraActToPre;
        ev.simraPreToAct = bank.open.simraPreToAct;
        break;
      case OpenKind::Normal:
        break;
    }
    if (copy != nullptr) {
        // Retro-tag the source row's close as the copy cycle's first
        // half: the disturbance hypothesis (paper §4.3) ties the
        // amplification to the short wordline off-interval.
        ev.cls = TechClass::Comra;
        ev.comraDelay = copy->gap;
        ev.comraPartner = copy->dst;
        ev.comraDstRole = false;
    }
    ev.tOn = bank.proto.pending.tOn;
    ev.reopenGap = bank.open.offGap;

    // applyClose charges damage onto every weak cell in the closing
    // aggressors' +-2 same-subarray blast radius; those victim rows
    // must have their cell populations drawn before the deposit, or a
    // lazily-built device would silently drop it -- with the CoMRA /
    // SiMRA factors, which only a non-conventional close reads.  While
    // a loop records or a prefix is logged, the same walk
    // over-approximates the deposit victims as body-touched (with the
    // aggressors, whose lastSide advances).
    const bool factors = ev.cls != TechClass::Conventional;
    const bool track = (recorder_.active && !recorder_.inRefresh) ||
                       runLog_ != nullptr;
    const auto nrows = static_cast<std::int64_t>(bank.rows.size());
    for (RowId a : ev.rows) {
        if (track)
            noteLoopTouched(bank, a);
        const SubarrayId sub = subarrayOfPhysical(a);
        for (int d : {-2, -1, 1, 2}) {
            const std::int64_t v = static_cast<std::int64_t>(a) + d;
            if (v < 0 || v >= nrows ||
                subarrayOfPhysical(static_cast<RowId>(v)) != sub)
                continue;
            if (factors)
                rowWithFactors(bank, static_cast<RowId>(v));
            else
                rowAt(bank, static_cast<RowId>(v));
            if (track)
                noteLoopTouched(bank, static_cast<RowId>(v));
        }
    }
    const bool memo_hit = disturb_.applyClose(
        bank.rows, ev, temperature_, dataEpoch_,
        static_cast<std::uint32_t>(bankIndex(bank)));
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c_hits =
            obs::metrics().counterId("device.close_memo_hits");
        static const obs::CounterId c_misses =
            obs::metrics().counterId("device.close_memo_misses");
        obs::metrics().add(memo_hit ? c_hits : c_misses);
    }
    if (mitigation_ != nullptr) {
        // The hook sees the final classification, including the
        // CoMRA retro-tag.  A run log keeps the close for the hook's
        // preview, and is spoiled by a refresh the hook asks for.
        if (runLog_ != nullptr) [[unlikely]] {
            // endLog() points the spans at the log's buffer.
            std::vector<RowId> &rows = logFill_.closeRows;
            rows.insert(rows.end(), ev.rows.begin(), ev.rows.end());
            logFill_.closes.push_back(
                {static_cast<BankId>(bankIndex(bank)), ev.cls,
                 {rows.end() - static_cast<std::ptrdiff_t>(ev.rows.size()),
                  rows.end()}});
        }
        mitigationRefresh_.clear();
        mitigation_->onClose(bankIndex(bank), ev, mitigationRefresh_);
        if (runLog_ != nullptr && !mitigationRefresh_.empty()) [[unlikely]]
            spoilLog();
        for (RowId r : mitigationRefresh_) {
            if (r < bank.rows.size())
                refreshRow(bank, r);
        }
    }
    bank.proto.pending.rows.swap(ev.rows);
}

void
Device::act(Time t, BankId b, RowId logical_row)
{
    advanceTime(t);
    if (b >= banks_.size())
        fatal("ACT to bank %u (device has %zu banks)", b, banks_.size());
    BankState &bank = banks_[b];
    if (logical_row >= cfg_.rowsPerBank())
        fatal("ACT to row %u (bank has %u rows)", logical_row,
              cfg_.rowsPerBank());
    const RowId phys = mapping_.toPhysical(logical_row);

    if (bank.proto.isOpen())
        fatal("ACT to bank %u while a row is open (missing PRE)", b);

    ++counters_.acts;

    const BankProtocol::Step step = bank.proto.act(cfg_, t, phys);
    if (step.transition == Transition::SimraIgnored) {
        // The previous row (group) stays open with its original
        // activation time.
        counters_.ignoredCommands += 2;
        return;
    }
    if (step.closed) {
        applyPendingClose(
            bank, step.transition == Transition::ComraCopy ? &step
                                                           : nullptr);
    }

    if (step.transition == Transition::SimraGroup) {
        for (RowId r : bank.proto.openRows)
            restoreRow(bank, r);
        bank.open.simraActToPre = step.tOn;
        bank.open.simraPreToAct = step.gap;
        majorityMerge(bank);
        ++counters_.simraOps;
    } else if (step.transition == Transition::ComraCopy) {
        // Destination latches the source's bitline charge: the
        // in-DRAM copy, with full charge restoration on dst.
        restoreRow(bank, step.src);
        Row &dst = rowAt(bank, phys);
        noteLoopTouched(bank, phys);
        if (dst.data != bank.rows[step.src].data) {
            dst.data = bank.rows[step.src].data;
            ++dataEpoch_;
        }
        for (WeakCell &c : dst.cells)
            c.resetDamage();
        disturb_.noteReset(dst);
        bank.open.comraDelay = step.gap;
        bank.open.comraPartner = step.src;
        ++counters_.comraCopies;
    } else {
        restoreRow(bank, phys);
    }

    const Time last = bank.rows[phys].lastCloseAt;
    bank.open.offGap = last >= 0 ? t - last : 0;
    if (runLog_ != nullptr) [[unlikely]] {
        // The first reopen gap the run takes from before its start.
        RunLog::RowImage &img = logRow(bank, phys);
        if (!img.stamped && img.gapAt < 0) {
            img.gapAt = t - runLog_->start_;
            img.gapKey = DisturbanceModel::offGapKey(bank.open.offGap);
        }
    }
    trrRecord(bank, phys);
}

void
Device::pre(Time t, BankId b)
{
    advanceTime(t);
    BankState &bank = banks_.at(b);
    ++counters_.pres;
    for (RowId r : bank.proto.openRows)
        stampClose(b, r, t);
    // PRE on a precharged bank is a no-op.
    bank.proto.pre(t);
}

void
Device::preAll(Time t)
{
    for (BankId b = 0; b < banks_.size(); ++b)
        pre(t, b);
}

RowData
Device::rd(Time t, BankId b)
{
    advanceTime(t);
    BankState &bank = banks_.at(b);
    if (!bank.proto.isOpen())
        fatal("RD on bank %u with no open row", b);
    return viewOf(bank.rows[bank.proto.openRows.front()]);
}

void
Device::wr(Time t, BankId b, const RowData &data)
{
    advanceTime(t);
    BankState &bank = banks_.at(b);
    if (!bank.proto.isOpen())
        fatal("WR on bank %u with no open row", b);
    if (data.bits() != cfg_.cols)
        fatal("WR with %u bits to a %u-bit row", data.bits(), cfg_.cols);
    if (runLog_ != nullptr) [[unlikely]]
        spoilLog();
    for (RowId r : bank.proto.openRows) {
        noteLoopTouched(bank, r);
        if (bank.rows[r].data != data) {
            bank.rows[r].data = data;
            ++dataEpoch_;
        }
        for (WeakCell &c : bank.rows[r].cells)
            c.resetDamage();
        disturb_.noteReset(bank.rows[r]);
    }
}

void
Device::ref(Time t)
{
    advanceTime(t);
    ++counters_.refs;
    if (recorder_.active)
        ++loopRecord_.refs;
    if (runLog_ != nullptr) [[unlikely]]
        spoilLog();
    const std::uint64_t slot =
        refCounter_ % static_cast<std::uint64_t>(cfg_.timings.refsPerWindow);
    const RowId start = stripeStart(slot);
    const RowId end = stripeStart(slot + 1);
    ++refCounter_;
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c =
            obs::metrics().counterId("device.refs");
        obs::metrics().add(c);
    }
    if (obs::traceOn()) [[unlikely]]
        obs::trace().event(
            "ref_anchor",
            {{"slot", slot},
             {"start", static_cast<std::uint64_t>(start)},
             {"end", static_cast<std::uint64_t>(end)},
             {"recording", recorder_.active}});

    for (BankState &bank : banks_) {
        if (bank.proto.isOpen())
            fatal("REF issued with an open bank");
        flushPending(bank);
        for (RowId r = start; r < end; ++r)
            refreshRow(bank, r);

        if (trrEnabled_ && bank.trrFill > 0) {
            // Sampling TRR: pick one of the last kTrrWindow activated
            // row addresses and preventively refresh its neighbours.
            const std::size_t span =
                std::min(bank.trrFill, kTrrWindow);
            const std::size_t back = trrRng_.below(span);
            const std::size_t idx =
                (bank.trrPos + kTrrWindow - 1 - back) % kTrrWindow;
            const RowId aggr = bank.trrRing[idx];
            if (aggr != kNoRow) {
                const SubarrayId sub = subarrayOfPhysical(aggr);
                for (int d : {-1, 1}) {
                    const std::int64_t v =
                        static_cast<std::int64_t>(aggr) + d;
                    if (v < 0 ||
                        v >= static_cast<std::int64_t>(
                                 bank.rows.size()))
                        continue;
                    if (subarrayOfPhysical(static_cast<RowId>(v)) != sub)
                        continue;
                    refreshRow(bank, static_cast<RowId>(v));
                    ++counters_.trrRefreshes;
                    if (obs::metricsOn()) [[unlikely]] {
                        static const obs::CounterId c =
                            obs::metrics().counterId(
                                "device.trr_refreshes");
                        obs::metrics().add(c);
                    }
                    if (obs::traceOn()) [[unlikely]]
                        obs::trace().event(
                            "trr_refresh",
                            {{"bank",
                              static_cast<std::uint64_t>(
                                  bankIndex(bank))},
                             {"aggr", static_cast<std::uint64_t>(
                                          aggr)},
                             {"victim",
                              static_cast<std::uint64_t>(v)}});
                }
            }
        }
    }
}

void
Device::beginLoopRecording()
{
    if (recorder_.active)
        fatal("Device: nested loop recording");
    recorder_.active = true;
    recorder_.inRefresh = false;
    recorder_.countersAtStart = counters_;
    recorder_.refreshTargets.clear();
    // Clear, not reassign: the per-bank buffers keep their capacity.
    LoopRecord &rec = loopRecord_;
    rec.samplerActs.resize(banks_.size());
    for (auto &acts : rec.samplerActs)
        acts.clear();
    rec.tracked.resize(banks_.size());
    for (auto &rows : rec.tracked)
        rows.clear();
    rec.refs = 0;
    rec.quiescent = true;
    disturb_.beginRecording();
}

const Device::LoopRecord &
Device::endLoopRecording()
{
    if (!recorder_.active)
        fatal("Device: endLoopRecording without beginLoopRecording");
    recorder_.active = false;

    LoopRecord &rec = loopRecord_;
    disturb_.endRecording(rec.damage);
    for (auto &rows : rec.tracked)
        std::sort(rows.begin(), rows.end());

    rec.counterDelta = counters_.since(recorder_.countersAtStart);

    // Quiescence: if a refresh reset a row the body also deposits into
    // (or otherwise mutates), the recorded iteration is not the
    // periodic steady state and must not be replayed.
    for (const auto &[b, r] : recorder_.refreshTargets) {
        if (std::binary_search(rec.tracked[b].begin(),
                               rec.tracked[b].end(), r)) {
            rec.quiescent = false;
            break;
        }
    }
    if (!loopReplayable(rec.refs > 0))
        rec.quiescent = false;
    return rec;
}

std::uint64_t
Device::replayLoopIterations(const LoopRecord &rec,
                             std::uint64_t max_iterations)
{
    if (!rec.quiescent || max_iterations == 0)
        return 0;

    std::uint64_t completed = max_iterations;
    if (rec.refs > 0) {
        // A quiescent REF-bearing record is TRR-off (endLoopRecording),
        // so a REF only refreshes the next stripe of a fixed rotation
        // -- slot s covers rows [stripeStart(s), stripeStart(s + 1)) of
        // every bank -- and the REFs from refCounter_ on sweep the rows
        // from `lo` on, cyclically.  The first tracked row in that
        // order fixes the first REF that would land on loop state;
        // every iteration whose REFs all come before it commits at
        // once.
        const RowId rows_per_bank = cfg_.rowsPerBank();
        const auto window =
            static_cast<std::uint64_t>(cfg_.timings.refsPerWindow);
        const std::uint64_t per = rec.refs;
        const std::uint64_t first = refCounter_ % window;
        const RowId lo = stripeStart(first);
        RowId next = kNoRow, lowest = kNoRow;
        for (const auto &rows : rec.tracked) {
            if (rows.empty())
                continue;
            lowest = std::min(lowest, rows.front());
            const auto it = std::lower_bound(rows.begin(), rows.end(), lo);
            if (it != rows.end())
                next = std::min(next, *it);
        }
        const RowId hit = next != kNoRow ? next : lowest;
        std::uint64_t clear = ~std::uint64_t{0};  // REFs before it
        if (hit != kNoRow) {
            const std::uint64_t slot =
                ((static_cast<std::uint64_t>(hit) + 1) * window - 1) /
                rows_per_bank;
            clear = (slot + window - first) % window;
        }
        completed = std::min(max_iterations, clear / per);
        if (completed == 0)
            return 0;

        // The committed REFs refresh rows [lo, hi) and, past the
        // bank's end, [0, wrap): untracked rows only, whose state the
        // loop leaves alone, so refreshing each once is what every
        // covering REF would do.  Walk whichever is shorter, those
        // rows or the bank's populated ones.
        const std::uint64_t refs = completed * per;
        RowId hi = rows_per_bank, wrap = 0;
        if (refs >= window)
            wrap = lo;
        else if (first + refs <= window)
            hi = stripeStart(first + refs);
        else
            wrap = stripeStart(first + refs - window);
        auto covered = [&](RowId r) { return r >= lo ? r < hi : r < wrap; };
        const std::size_t span = (hi - lo) + wrap;
        for (BankState &bank : banks_) {
            if (bank.rows.empty())
                continue;
            if (span >= bank.populatedIdx.size()) {
                for (RowId r : bank.populatedIdx)
                    if (covered(r))
                        refreshRow(bank, r);
                continue;
            }
            for (RowId r = lo; r < hi; ++r)
                refreshRow(bank, r);
            for (RowId r = 0; r < wrap; ++r)
                refreshRow(bank, r);
        }
        refCounter_ += refs;
    }

    // Keep the obs counters in lockstep with counters_ so the metrics
    // totals do not depend on how many REFs were replayed vs executed
    // live.  Rolled up once per replay; replay emits no per-REF trace
    // events, fastpath_replay summarizes them.  A replayed REF draws
    // no TRR victim, but device.trr_refreshes is registered here too,
    // so the --metrics listing carries it (as zero) whenever a loop
    // replays.
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c_refs =
            obs::metrics().counterId("device.refs");
        [[maybe_unused]] static const obs::CounterId c_trr =
            obs::metrics().counterId("device.trr_refreshes");
        if (rec.refs > 0)
            obs::metrics().add(c_refs, rec.refs * completed);
    }

    // Damage: the recorded iteration's deltas, scaled once.  Safe to
    // defer past the refreshes above because those never touch a
    // deposit-bearing (tracked) row.
    DisturbanceModel::replay(rec.damage, completed);

    counters_.add(rec.counterDelta, completed);

    // Advance each bank's sampler ring closed-form: of the
    // completed * per pushes only the last n <= kTrrWindow survive.
    // The pushed stream is periodic in the body, so the survivors are
    // one period rotated to `first % per`, repeated: build them by
    // doubling copies, then write them in around the ring's wrap.
    // Every push past the ring's free slots evicts an entry, as
    // trrRecord counts live (without its per-push trace event).
    std::uint64_t evictions = 0;
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        BankState &bank = banks_[b];
        const std::vector<RowId> &acts = rec.samplerActs[b];
        const std::uint64_t per = acts.size();
        const std::uint64_t pushes = per * completed;
        if (pushes == 0)
            continue;
        const std::uint64_t first =
            pushes > kTrrWindow ? pushes - kTrrWindow : 0;
        const auto n = static_cast<std::size_t>(pushes - first);

        RowId *seq = ringScratch_.data();
        std::size_t built = static_cast<std::size_t>(
            std::min<std::uint64_t>(per, n));
        for (std::size_t j = 0; j < built; ++j)
            seq[j] = acts[static_cast<std::size_t>((first + j) % per)];
        while (built < n) {  // built stays a multiple of per
            const std::size_t more = std::min(built, n - built);
            std::copy_n(seq, more, seq + built);
            built += more;
        }

        const std::size_t pos0 = bank.trrPos;
        const auto start =
            static_cast<std::size_t>((pos0 + first) % kTrrWindow);
        const std::size_t upto = std::min(n, kTrrWindow - start);
        std::copy_n(seq, upto, bank.trrRing.begin() +
                                   static_cast<std::ptrdiff_t>(start));
        std::copy_n(seq + upto, n - upto, bank.trrRing.begin());
        bank.trrPos = static_cast<std::size_t>((pos0 + pushes) % kTrrWindow);
        if (bank.trrFill + pushes > kTrrWindow)
            evictions += bank.trrFill + pushes - kTrrWindow;
        bank.trrFill = static_cast<std::size_t>(
            std::min<std::uint64_t>(kTrrWindow, bank.trrFill + pushes));
    }
    if (evictions > 0 && obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c =
            obs::metrics().counterId("device.trr_evictions");
        obs::metrics().add(c, evictions);
    }
    return completed;
}

void
Device::shiftLoopTimestamps(Time from, Time delta)
{
    if (delta <= 0)
        return;
    for (BankState &bank : banks_) {
        BankProtocol &proto = bank.proto;
        if (proto.pending.valid && proto.pending.closedAt > from) {
            proto.pending.closedAt += delta;
            proto.pending.openedAt += delta;
        }
        if (proto.isOpen() && proto.openedAt > from)
            proto.openedAt += delta;
    }
    // A stamp after `from` was set by a PRE since the last shift, or
    // moved by that shift (a replayed loop leaves its rows' stamps
    // ahead of the device clock): either way its row is listed.  The
    // rows this shift leaves behind hold stamps at or before `from`,
    // hence before any later loop's start, and leave the list.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < stampedRows_.size(); ++i) {
        const auto [b, r] = stampedRows_[i];
        Row &row = banks_[b].rows[r];
        if (row.lastCloseAt > from) {
            row.lastCloseAt += delta;
            stampedRows_[kept++] = stampedRows_[i];
        } else {
            row.stampListed = false;
        }
    }
    stampedRows_.resize(kept);
}

Device::RunLog::RowImage &
Device::addLogRow(BankState &bank, RowId physical)
{
    LogFill &fill = logFill_;
    Row &row = bank.rows[physical];
    row.logImage = static_cast<std::uint32_t>(fill.rows.size());
    fill.rows.push_back({&row, bankIndex(bank), physical,
                         static_cast<std::uint32_t>(fill.damage.size()),
                         row.lastSide});
    for (const WeakCell &cell : row.cells)
        fill.damage.push_back(cell.damage);
    return fill.rows.back();
}

bool
Device::beginLog(RunLog &log, Time start)
{
    for (const BankState &bank : banks_)
        if (bank.proto.isOpen() || bank.proto.pending.valid)
            return false;
    log.filled_ = false;
    log.start_ = start;
    log.epoch_ = dataEpoch_;
    log.temperature_ = temperature_;
    log.trrEnabled_ = trrEnabled_;
    log.hook_ = mitigation_;
    log.counters_ = counters_;
    logFill_.rows.clear();
    logFill_.damage.clear();
    logFill_.pushes.clear();
    logFill_.closes.clear();
    logFill_.closeRows.clear();
    runLog_ = &log;
    disturb_.beginCapture(kLogRuns);
    return true;
}

bool
Device::endLog(RunLog &log, Time end)
{
    if (runLog_ != &log)
        return false;  // spoiled
    runLog_ = nullptr;
    if (!disturb_.endCapture(dataEpoch_ == log.epoch_ ? &log.damageLog_
                                                      : nullptr))
        return false;

    const LogFill &fill = logFill_;
    log.rows_.assign(fill.rows.begin(), fill.rows.end());
    log.damage_.clear();
    std::size_t banks = 0;
    for (RunLog::RowImage &img : log.rows_) {
        img.sideAfter = img.row->lastSide;
        if (img.stamped)
            img.closeAt = img.row->lastCloseAt - log.start_;
        if (img.readsDamage) {
            const auto at = fill.damage.begin() + img.damageAt;
            img.damageAt = static_cast<std::uint32_t>(log.damage_.size());
            log.damage_.insert(
                log.damage_.end(), at,
                at + static_cast<std::ptrdiff_t>(img.row->cells.size()));
        }
        // Every bank the run changed holds a row it touched.  The
        // images are reused, so their protocol buffers keep their
        // capacity.
        const auto end = log.banks_.begin() +
                         static_cast<std::ptrdiff_t>(banks);
        if (std::none_of(log.banks_.begin(), end,
                         [&](const RunLog::BankImage &bi) {
                             return bi.bank == img.bank;
                         })) {
            if (banks == log.banks_.size())
                log.banks_.emplace_back();
            log.banks_[banks++].bank = img.bank;
        }
    }
    log.banks_.resize(banks);
    log.pushes_.assign(fill.pushes.begin(), fill.pushes.end());
    log.closes_.assign(fill.closes.begin(), fill.closes.end());
    log.closeRows_.assign(fill.closeRows.begin(), fill.closeRows.end());
    for (RunLog::BankImage &bi : log.banks_) {
        bi.proto = banks_[bi.bank].proto;
        shiftProtocol(bi.proto, -log.start_);
        bi.open = banks_[bi.bank].open;
    }
    const RowId *rows = log.closeRows_.data();
    for (LoggedClose &close : log.closes_) {
        close.rows = {rows, close.rows.size()};
        rows += close.rows.size();
    }
    log.counters_ = counters_.since(log.counters_);
    log.nowAt_ = now_ - log.start_;
    log.duration_ = end - log.start_;
    log.filled_ = true;
    return true;
}

bool
Device::endPrefixLog(RunLog &log, Time end)
{
    if (runLog_ == &log && !loopRecord_.quiescent)
        spoilLog();
    if (!endLog(log, end))
        return false;
    // The record moves into the log; its old buffers serve the next
    // recording.
    std::swap(log.record_, loopRecord_);
    return true;
}

Device::LogApply
Device::applyLog(const RunLog &log, Time start)
{
    // Guards (DESIGN.md §4.2): the same environment, hook and data
    // epoch -- so the same data and cells everywhere -- idle banks,
    // and per touched row the same side state, the same damage where
    // the run reads it, and the same off-time key for a reopen gap
    // that reaches back before the run.
    if (!log.filled_ || mitigation_ != log.hook_ ||
        trrEnabled_ != log.trrEnabled_ ||
        temperature_ != log.temperature_ ||
        dataEpoch_ != log.epoch_)
        return LogApply::Stale;
    for (const RunLog::BankImage &bi : log.banks_) {
        const BankProtocol &proto = banks_[bi.bank].proto;
        if (proto.isOpen() || proto.pending.valid)
            return LogApply::Stale;
    }
    for (const RunLog::RowImage &img : log.rows_) {
        const Row &row = *img.row;
        if (row.lastSide != img.sideBefore)
            return LogApply::Stale;
        if (img.readsDamage &&
            !std::equal(row.cells.begin(), row.cells.end(),
                        log.damage_.begin() + img.damageAt,
                        [](const WeakCell &cell,
                           const std::array<float, 3> &was) {
                            return std::memcmp(cell.damage.data(),
                                               was.data(),
                                               sizeof was) == 0;
                        }))
            return LogApply::Stale;
        if (img.gapAt >= 0) {
            const Time last = row.lastCloseAt;
            const Time gap = last >= 0 ? start + img.gapAt - last : 0;
            if (DisturbanceModel::offGapKey(gap) != img.gapKey)
                return LogApply::Stale;
        }
    }
    if (mitigation_ != nullptr && !mitigation_->preview(log.closes_))
        return LogApply::HookFires;

    log.damageLog_.apply();
    for (const RunLog::RowImage &img : log.rows_) {
        img.row->lastSide = img.sideAfter;
        if (img.stamped)
            stampClose(img.bank, img.physical, start + img.closeAt);
    }
    for (const RunLog::BankImage &bi : log.banks_) {
        BankState &bank = banks_[bi.bank];
        bank.proto = bi.proto;
        shiftProtocol(bank.proto, start);
        bank.open = bi.open;
    }
    for (const auto &[b, r] : log.pushes_)
        trrRecord(banks_[b], r);
    counters_.add(log.counters_);
    now_ = start + log.nowAt_;
    return LogApply::Applied;
}

void
Device::flush()
{
    for (BankState &bank : banks_)
        flushPending(bank);
}

void
Device::writeRowDirect(BankId b, RowId logical_row, const RowData &data)
{
    BankState &bank = banks_.at(b);
    const RowId phys = mapping_.toPhysical(logical_row);
    Row &row = rowAt(bank, phys);
    // A close reads neither the damage this clears nor (it checks it
    // per victim) lastSide, so an identical rewrite keeps the memo.
    const bool redraw = cfg_.trialNoiseSigma > 0.0;
    if (row.data != data || redraw) {
        row.data = data;
        ++dataEpoch_;
    }
    for (WeakCell &c : row.cells) {
        c.resetDamage();
        if (redraw) {
            // A host write starts a fresh trial: redraw the cell's
            // run-to-run threshold jitter.
            c.trialScale = static_cast<float>(
                std::exp(cfg_.trialNoiseSigma * noiseRng_.gaussian()));
        }
    }
    row.lastSide = 0;
}

std::vector<RowId>
Device::trrSamplerRows(BankId b) const
{
    const BankState &bank = banks_.at(b);
    std::vector<RowId> rows;
    for (std::size_t i = bank.trrFill; i > 0; --i)
        rows.push_back(
            bank.trrRing[(bank.trrPos + kTrrWindow - i) % kTrrWindow]);
    return rows;
}

std::size_t
Device::diffCountDirect(BankId b, RowId logical_row,
                        const RowData &expected) const
{
    // viewOf() toggles each flipped cell's (distinct) column, so each
    // one moves the stored data's distance to `expected` by exactly 1.
    auto *self = const_cast<Device *>(this);
    const Row &row =
        self->rowAt(self->banks_.at(b), mapping_.toPhysical(logical_row));
    std::size_t n = row.data.diffCount(expected);
    for (const WeakCell &cell : row.cells) {
        if (!cell.flipped())
            continue;
        if (row.data.get(cell.col) == expected.get(cell.col))
            ++n;
        else
            --n;
    }
    return n;
}

RowData
Device::readRowDirect(BankId b, RowId logical_row) const
{
    // Logically const: reading a pristine row returns its (drawn)
    // initial data, so materializing here is an internal cache fill.
    auto *self = const_cast<Device *>(this);
    BankState &bank = self->banks_.at(b);
    const RowId phys = mapping_.toPhysical(logical_row);
    return viewOf(self->rowAt(bank, phys));
}

} // namespace pud::dram
