/**
 * @file
 * Command-level DDR4 device model with multiple-row activation.
 *
 * The device consumes timestamped DDR4 commands (ACT, PRE, RD, WR,
 * REF) exactly as DRAM Bender issues them to a real module.  Timing
 * *violations are allowed* -- they are the mechanism behind
 * Processing-using-DRAM:
 *
 *  - ACT src ... PRE, ACT dst with the PRE->ACT gap below tRP and both
 *    rows in one subarray performs an in-DRAM RowClone copy (CoMRA).
 *  - ACT R1, PRE, ACT R2 with both gaps grossly violated activates the
 *    bit-combination row set simultaneously (SiMRA) on chips that
 *    tolerate the sequence (SK Hynix in the paper); other chips ignore
 *    the violating commands, matching the paper's §5.3 footnote.
 *
 * Which of these an ACT performs is decided by dram::BankProtocol
 * (protocol.h), the kernel the static analyses in src/lint share.
 *
 * Every row-close feeds the DisturbanceModel, which accrues read-
 * disturbance damage on neighbouring rows' weak cells.  REF performs
 * stripe refresh and, when enabled, sampling-based Target Row Refresh.
 */

#ifndef PUD_DRAM_DEVICE_H
#define PUD_DRAM_DEVICE_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dram/cell.h"
#include "dram/config.h"
#include "dram/datapattern.h"
#include "dram/disturb.h"
#include "dram/mapping.h"
#include "dram/protocol.h"
#include "dram/types.h"
#include "util/rng.h"
#include "util/units.h"

namespace pud::dram {

/** Aggregate command counters, exposed for tests and benches. */
struct DeviceCounters
{
    std::uint64_t acts = 0;       //!< explicit ACT commands
    std::uint64_t pres = 0;
    std::uint64_t refs = 0;
    std::uint64_t comraCopies = 0;   //!< detected CoMRA copy cycles
    std::uint64_t simraOps = 0;      //!< detected SiMRA group opens
    std::uint64_t ignoredCommands = 0;  //!< grossly violating, ignored
    std::uint64_t trrRefreshes = 0;     //!< TRR victim refreshes

    /** These counters minus `start`, an earlier snapshot of them. */
    DeviceCounters
    since(const DeviceCounters &start) const
    {
        return {acts - start.acts,
                pres - start.pres,
                refs - start.refs,
                comraCopies - start.comraCopies,
                simraOps - start.simraOps,
                ignoredCommands - start.ignoredCommands,
                trrRefreshes - start.trrRefreshes};
    }

    /** Add `times` copies of `delta` to the counters. */
    void
    add(const DeviceCounters &delta, std::uint64_t times = 1)
    {
        acts += delta.acts * times;
        pres += delta.pres * times;
        refs += delta.refs * times;
        comraCopies += delta.comraCopies * times;
        simraOps += delta.simraOps * times;
        ignoredCommands += delta.ignoredCommands * times;
        trrRefreshes += delta.trrRefreshes * times;
    }
};

/** A close a run log holds, as MitigationHook::preview() sees it. */
struct LoggedClose
{
    BankId bank;
    TechClass cls;
    std::span<const RowId> rows;  //!< physical, sorted
};

/**
 * Observer-side mitigation mechanism attached to a Device.
 *
 * The device calls onClose() once per close event, immediately after
 * the event's disturbance deposit lands; the hook appends the
 * physical rows it wants preventively refreshed and the device
 * refreshes them on the spot (exactly like a TRR victim refresh:
 * flips materialize, damage resets).  SamplingTrr stays native
 * (setTrrEnabled) because it is driven by REF rather than by closes;
 * PRAC / PARA / Graphene models live in src/mitigation and implement
 * this interface.
 *
 * Mitigation state machines are not iteration-affine, so a loop on a
 * device with a hook attached never replays arithmetically
 * (Device::loopReplayable); native TRR does the same to a loop whose
 * body issues a REF.  The executor runs such a loop segment by
 * segment instead, applying a segment's run log where the device and
 * the hook's preview() allow (DESIGN.md §4.2).
 */
class MitigationHook
{
  public:
    virtual ~MitigationHook() = default;

    /**
     * One close event in `bank`.  Append physical rows to refresh to
     * *refresh; out-of-range rows are ignored.
     */
    virtual void onClose(BankId bank, const CloseEvent &event,
                         std::vector<RowId> &refresh) = 0;

    /**
     * Whether the hook implements preview().  The default does not, so
     * every close runs live and no run is logged for it.
     */
    virtual bool previews() const { return false; }

    /**
     * Exact preview of a logged run of closes, asked only of a hook
     * that previews(): return true iff onClose() on each of `closes`,
     * in order, would ask for no refresh, having then moved the hook's
     * state exactly as those calls would; otherwise return false with
     * the state untouched.
     */
    virtual bool
    preview(std::span<const LoggedClose> closes)
    {
        (void)closes;
        return false;
    }
};

/**
 * Condition factors of a bank's open row (group).  An ACT replaces them
 * only after applying or consuming the pending close, so until then
 * they also describe that close.
 */
struct OpenConditions
{
    Time comraDelay = 0;
    RowId comraPartner = kNoRow;
    Time offGap = 0;
    Time simraActToPre = 0;
    Time simraPreToAct = 0;
};

/** A simulated DRAM module (rank granularity). */
class Device
{
  public:
    /** Number of ACTs the TRR sampler considers before a REF (§7). */
    static constexpr std::size_t kTrrWindow = 450;

    explicit Device(DeviceConfig cfg);

    // The close memo holds raw pointers into this device's rows, which
    // a copy would carry over into the clone.
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    // ---- DDR command interface (t must be non-decreasing) -------------
    void act(Time t, BankId bank, RowId logical_row);
    void pre(Time t, BankId bank);
    void preAll(Time t);
    /** Read the open row (flip-composed view). */
    RowData rd(Time t, BankId bank);
    /** Write all currently open rows (SiMRA groups included). */
    void wr(Time t, BankId bank, const RowData &data);
    /** Stripe refresh + TRR; all banks must be precharged. */
    void ref(Time t);

    /** Apply any pending close events (end of a test program). */
    void flush();

    // ---- environment ----------------------------------------------------
    void setTemperature(Celsius c) { temperature_ = c; }
    Celsius temperature() const { return temperature_; }
    void setTrrEnabled(bool on) { trrEnabled_ = on; }
    bool trrEnabled() const { return trrEnabled_; }

    /**
     * Attach (or with nullptr detach) a close-driven mitigation.  The
     * hook is borrowed, not owned, and must outlive the device or be
     * detached first.
     */
    void setMitigation(MitigationHook *hook) { mitigation_ = hook; }
    MitigationHook *mitigation() const { return mitigation_; }

    /**
     * Clear every bank's TRR sampler ring.  Experiments use this to
     * isolate a measured pattern from preceding setup/profiling ACTs,
     * which would otherwise occupy the sampler window and distort the
     * first TRR decisions of the run.
     */
    void resetTrrSampler();

    /** Sampled ACT addresses currently held by a bank's TRR ring. */
    std::size_t
    trrSamplerFill(BankId bank) const
    {
        return banks_[bank].trrFill;
    }

    /** The physical rows a bank's TRR ring holds, oldest to newest. */
    std::vector<RowId> trrSamplerRows(BankId bank) const;

    // ---- testbench (host-DMA) helpers ------------------------------------
    /** Write a row directly, restoring full charge (resets damage). */
    void writeRowDirect(BankId bank, RowId logical_row, const RowData &data);
    /** Read a row directly without disturbing anything. */
    RowData readRowDirect(BankId bank, RowId logical_row) const;
    /** Bits in which readRowDirect() would differ from `expected`,
     *  counted in place. */
    std::size_t diffCountDirect(BankId bank, RowId logical_row,
                                const RowData &expected) const;

    // ---- executor fast-path recording ------------------------------------

    /**
     * One steady-state loop iteration, captured for arithmetic replay.
     * Beyond the per-cell damage deltas this remembers everything the
     * body does to iteration-dependent device state: the ACT addresses
     * it pushes into each bank's TRR sampler ring (in order), how many
     * REFs it issues, which rows it touches, and the command-counter
     * deltas.
     */
    struct LoopRecord
    {
        DamageRecord damage;  //!< per-cell net deposits, one iteration

        /** Command-counter deltas of one iteration. */
        DeviceCounters counterDelta;

        /** Per bank: ACT addresses sampled by TRR, in push order. */
        std::vector<std::vector<RowId>> samplerActs;

        /** REFs in the body. */
        std::uint64_t refs = 0;

        /** Per bank, sorted: physical rows whose damage, data, or
         *  close-side state the body mutates (deposit victims are
         *  over-approximated by the +-2 blast radius).  In first-touch
         *  order while recording. */
        std::vector<std::vector<RowId>> tracked;

        /** False if a refresh hit a tracked row *during* recording, or
         *  the loop is not replayable at all (loopReplayable): the
         *  iteration is then not periodic and must not replay. */
        bool quiescent = true;
    };

    /**
     * What a run of live commands did to the device, kept so that the
     * same commands can later apply it instead of executing
     * (DESIGN.md §4.2): a top-level loop's first chunk -- two warm-up
     * iterations and the recorded one -- on a later run of the same
     * shape, or a REF-free segment of a loop that cannot replay.
     * Times are relative to the run's start.  The executor owns the
     * logs; a refill reuses their buffers.
     */
    class RunLog
    {
      public:
        // closes_ views closeRows_: a copy would view the original's.
        RunLog() = default;
        RunLog(const RunLog &) = delete;
        RunLog &operator=(const RunLog &) = delete;
        RunLog(RunLog &&) = default;
        RunLog &operator=(RunLog &&) = default;

        /** Forget the fill; the buffers stay. */
        void clear() { filled_ = false; }
        /** How far the run advances the cursor. */
        Time duration() const { return duration_; }
        /** A prefix's recorded iteration, to replay from. */
        const LoopRecord &record() const { return record_; }

      private:
        friend class Device;

        /** A row the run touched, as the run found it. */
        struct RowImage
        {
            Row *row;
            std::size_t bank;
            RowId physical;
            /** Its cells' damage, in damage_ (LogFill::damage while
             *  filling). */
            std::uint32_t damageAt;
            std::int8_t sideBefore;     //!< lastSide at the run's start
            std::int8_t sideAfter = 0;  //!< and after the run
            /** Restored by an ACT: its flips decide its data. */
            bool readsDamage = false;
            /** Closed by the run, last at `closeAt`. */
            bool stamped = false;
            Time closeAt = 0;
            /** Its first ACT, if that read a close stamp from before
             *  the run, and the off-time key it gave (-1: none). */
            Time gapAt = -1;
            Time gapKey = 0;
        };

        /** A bank the run issued commands to, as it left it. */
        struct BankImage
        {
            std::size_t bank;
            BankProtocol proto;  //!< times relative to the run's start
            OpenConditions open;
        };

        bool filled_ = false;
        Time start_ = 0;      //!< the fill's start
        Time duration_ = 0;
        Time nowAt_ = 0;
        std::uint64_t epoch_ = 0;  //!< dataEpoch_ at the fill
        Celsius temperature_ = 0;
        bool trrEnabled_ = false;
        MitigationHook *hook_ = nullptr;
        DeviceCounters counters_;  //!< at the start, then the delta
        DamageLog damageLog_;
        std::vector<RowImage> rows_;
        /** At the start, of the rows the run restores. */
        std::vector<std::array<float, 3>> damage_;
        std::vector<BankImage> banks_;
        /** TRR sampler pushes, (bank, row), in live order. */
        std::vector<std::pair<std::uint32_t, RowId>> pushes_;
        /** With a hook attached, the closes, for its preview(); their
         *  rows live in closeRows_. */
        std::vector<LoggedClose> closes_;
        std::vector<RowId> closeRows_;
        LoopRecord record_;
    };

    /** What applyLog() made of a log. */
    enum class LogApply : std::uint8_t
    {
        Applied,
        /** A guard failed: the device is not as the fill found it. */
        Stale,
        /** The guards passed, but the hook would refresh a row. */
        HookFires,
    };

    /**
     * Whether a loop whose body issues REFs (`refs`) or none could
     * replay arithmetically: a close-driven mitigation is an arbitrary
     * state machine over the close stream, and sampling TRR's REF
     * refreshes the neighbours of a randomly drawn ring entry, so
     * neither a hooked device nor a TRR device's REF-bearing body ever
     * exposes an iteration-affine steady state.
     */
    bool
    loopReplayable(bool refs) const
    {
        return mitigation_ == nullptr && !(trrEnabled_ && refs);
    }

    void beginLoopRecording();

    /**
     * Finish the recording.  The record is the Device's own and stays
     * valid until the next beginLoopRecording(), which reuses its
     * buffers.
     */
    const LoopRecord &endLoopRecording();

    /**
     * Replay up to `max_iterations` further iterations of the recorded
     * body and return how many were committed.  Damage deposits and
     * command counters are applied once, scaled by the committed
     * count, and each bank's TRR sampler ring is advanced closed-form.
     * A REF-bearing body (TRR off: see LoopRecord::quiescent) commits
     * the iterations whose stripe refreshes all miss tracked rows and
     * stops -- a *phase break* -- before the first REF that would hit
     * one, so the caller can execute that iteration live.
     */
    std::uint64_t replayLoopIterations(const LoopRecord &record,
                                       std::uint64_t max_iterations);

    /**
     * After a loop fast-path replay, advance every timestamp that was
     * set by the recorded iteration (pending closes, per-row
     * last-close times) by the skipped iterations' duration, so
     * cross-loop-boundary timing detection (CoMRA/SiMRA windows,
     * off-time gains) behaves exactly as if every iteration had
     * executed.  `from` is the recorded iteration's start time: a
     * stamp at or before it was set by a warm-up iteration or before
     * the loop, and stays.
     */
    void shiftLoopTimestamps(Time from, Time delta);

    // ---- executor run logs (DESIGN.md §4.2) --------------------------------

    /** Most runs of equal adds (DamageLog) a run log keeps; a run of
     *  commands with more is not logged. */
    static constexpr std::size_t kLogRuns = 4096;

    /**
     * Start logging into `log` what the commands the caller runs next
     * do to the device.  Returns false, logging nothing, when a bank
     * is not idle: the result could not be reused.
     */
    bool beginLog(RunLog &log, Time start);

    /**
     * Stop logging into `log`; `end` is the caller's cursor.  Returns
     * whether the log is reusable: nothing spoiled it (spoilLog()), no
     * row's data or cells changed (dataEpoch_ held), and it stayed
     * within kLogRuns.
     */
    bool endLog(RunLog &log, Time end);

    /**
     * endLog() for a loop prefix, right after endLoopRecording(): the
     * record must be quiescent too, and, if the log is reusable, it
     * has moved into the log: replay from log.record().
     */
    bool endPrefixLog(RunLog &log, Time end);

    /**
     * Apply a filled log at `start` in place of executing its
     * commands, if the device's state passes the log's guards and an
     * attached hook's preview() sees no refresh; otherwise touch
     * nothing (a preview that sees a refresh leaves the hook as it
     * was).
     */
    LogApply applyLog(const RunLog &log, Time start);

    // ---- introspection ----------------------------------------------------
    const DeviceConfig &config() const { return cfg_; }
    const DeviceCounters &counters() const { return counters_; }
    bool supportsSimra() const { return cfg_.profile.supportsSimra; }
    RowId rowsPerBank() const { return cfg_.rowsPerBank(); }
    RowId toPhysical(RowId logical) const { return mapping_.toPhysical(logical); }
    RowId toLogical(RowId physical) const { return mapping_.toLogical(physical); }
    SubarrayId
    subarrayOfPhysical(RowId physical) const
    {
        return physical >> subarrayShift_;
    }
    const DisturbanceModel &disturbModel() const { return disturb_; }
    Time now() const { return now_; }

    /** Test-only: the weak cells of a (logical) row (materializes it). */
    const std::vector<WeakCell> &weakCells(BankId bank,
                                           RowId logical_row) const;

    /** Test-only: when a (logical) row last closed, -1 if it never
     *  did (does not materialize it). */
    Time
    lastCloseAt(BankId bank, RowId logical_row) const
    {
        const std::vector<Row> &rows = banks_.at(bank).rows;
        const RowId phys = toPhysical(logical_row);
        return phys < rows.size() ? rows[phys].lastCloseAt : -1;
    }

    /** Test-only: whether a (logical) row has been drawn (does not
     *  materialize it). */
    bool
    populated(BankId bank, RowId logical_row) const
    {
        const std::vector<Row> &rows = banks_.at(bank).rows;
        const RowId phys = toPhysical(logical_row);
        return phys < rows.size() && rows[phys].populated;
    }

    /** Test-only: a (logical) row's close-side state (does not
     *  materialize it). */
    std::int8_t
    lastSide(BankId bank, RowId logical_row) const
    {
        const std::vector<Row> &rows = banks_.at(bank).rows;
        const RowId phys = toPhysical(logical_row);
        return phys < rows.size() ? rows[phys].lastSide : 0;
    }

    /** Test-only: forget every memoized close, so the next closes
     *  recompute their deposits (DisturbanceModel::forgetCloses). */
    void invalidateCloses() { disturb_.forgetCloses(); }

    /** Test-only: the TRR sampler's and the trial noise's RNGs. */
    const Rng &trrRng() const { return trrRng_; }
    const Rng &noiseRng() const { return noiseRng_; }

    // ---- lazy row materialization ----------------------------------------

    /**
     * Eagerly draw every row's data and weak-cell population, exactly
     * as pre-fleet-scale Devices did at construction.  Row streams are
     * counter-based, so this is observably identical to letting rows
     * materialize on first touch; tests pin that equivalence, and the
     * population benches use it as the memory/startup-cost ablation
     * baseline.
     */
    void materializeAllRows();

    /** Rows whose weak-cell population has been drawn so far. */
    std::size_t populatedRowCount() const { return populatedRows_; }

    // ---- arena reuse ------------------------------------------------------

    /**
     * Return the device to the state a freshly constructed
     * `Device(cfg)` with `cfg.seed = seed` would have, in
     * O(populated rows) instead of O(all rows): only rows whose
     * weak-cell population was drawn are cleared (each bank keeps a
     * dense index-vector of them), bank shells and the row arrays keep
     * their allocations, and the per-module RNG streams are re-seeded
     * exactly as the constructor does.  Population sweeps use this to
     * reuse one Device arena per worker slot across thousands of
     * module instances; a test pins that a reset device reproduces a
     * fresh one's HC_first bit-identically.  Fatal while a loop
     * recording is active.
     */
    void reset(std::uint64_t seed);

  private:
    struct BankState
    {
        std::vector<Row> rows;

        /**
         * Dense index-vector of the rows in `rows` whose population
         * has been drawn (in materialization order, not sorted).  This
         * is what keeps reset() O(populated rows): mostly-idle modules
         * at fleet scale touch a few dozen rows out of tens of
         * thousands, and the reset walks exactly those.
         */
        std::vector<RowId> populatedIdx;

        BankProtocol proto;
        OpenConditions open;

        // TRR sampler: ring of the last kTrrWindow ACT row addresses.
        std::vector<RowId> trrRing;
        std::size_t trrPos = 0;
        std::size_t trrFill = 0;
    };

    /** First-touch bank shell: size the row array and TRR ring. */
    void touchBank(BankState &bank);

    /** What populateRow() draws from a row's keyed stream. */
    enum class RowDraw : std::uint8_t
    {
        /** A new row: its data and every cell field but the CoMRA /
         *  SiMRA factors (comraFactor, simraFactor, dstRoleGain),
         *  which only non-conventional closes read. */
        Thresholds,
        /** Only those factors, into a row drawn as Thresholds. */
        Factors,
        /** A new row, factors included. */
        All,
    };

    /**
     * Draw a row from its keyed stream.  Every mode walks the whole
     * stream, so the factors come out the same whether a row is drawn
     * All at once or Thresholds first and Factors later.
     */
    void populateRow(BankState &bank, RowId physical,
                     RowDraw what = RowDraw::Thresholds);

    /** Materializing accessor: every row mutation goes through here. */
    Row &
    rowAt(BankState &bank, RowId physical)
    {
        touchBank(bank);
        Row &row = bank.rows[physical];
        if (!row.populated) [[unlikely]]
            populateRow(bank, physical);
        return row;
    }

    /** rowAt(), with the row's CoMRA/SiMRA factors drawn. */
    Row &
    rowWithFactors(BankState &bank, RowId physical)
    {
        touchBank(bank);
        Row &row = bank.rows[physical];
        if (!row.factorsDrawn) [[unlikely]]
            populateRow(bank, physical,
                        row.populated ? RowDraw::Factors : RowDraw::All);
        return row;
    }

    void advanceTime(Time t);

    /**
     * Deposit the bank's resolved pending close (and run the
     * mitigation hook on it); a non-null `copy` retro-tags it as the
     * source half of that CoMRA copy cycle.
     */
    void applyPendingClose(BankState &bank,
                           const BankProtocol::Step *copy);

    /** Apply the pending close, if any, without a consuming ACT. */
    void
    flushPending(BankState &bank)
    {
        if (bank.proto.dropPending())
            applyPendingClose(bank, nullptr);
    }

    void trrRecord(BankState &bank, RowId physical);
    void refreshRow(BankState &bank, RowId physical);

    /**
     * First row of REF slot `slot`'s refresh stripe: slot s of the
     * window covers rows [stripeStart(s), stripeStart(s + 1)) of every
     * bank.
     */
    RowId
    stripeStart(std::uint64_t slot) const
    {
        return static_cast<RowId>(
            slot * cfg_.rowsPerBank() /
            static_cast<std::uint64_t>(cfg_.timings.refsPerWindow));
    }

    /** Restore a row's charge: materialize flips, clear damage. */
    void restoreRow(BankState &bank, RowId physical);

    std::size_t
    bankIndex(const BankState &bank) const
    {
        return static_cast<std::size_t>(&bank - banks_.data());
    }

    /**
     * Loop-recording and run-logging hook: the body is about to
     * mutate this row's state (`reads_damage`: and read its damage).
     * A recording tracks each row once (Row::trackedAt).
     */
    void
    noteLoopTouched(BankState &bank, RowId physical,
                    bool reads_damage = false)
    {
        if (recorder_.active && !recorder_.inRefresh) {
            std::vector<RowId> &rows = loopRecord_.tracked[bankIndex(bank)];
            Row &row = bank.rows[physical];
            if (row.trackedAt >= rows.size() ||
                rows[row.trackedAt] != physical) {
                row.trackedAt = static_cast<std::uint32_t>(rows.size());
                rows.push_back(physical);
            }
        }
        if (runLog_ != nullptr) [[unlikely]]
            logRow(bank, physical).readsDamage |= reads_damage;
    }

    /** The logged image of a row, added on first touch. */
    RunLog::RowImage &
    logRow(BankState &bank, RowId physical)
    {
        Row &row = bank.rows[physical];
        std::vector<RunLog::RowImage> &rows = logFill_.rows;
        if (row.logImage < rows.size() && rows[row.logImage].row == &row)
            return rows[row.logImage];
        return addLogRow(bank, physical);
    }

    /** logRow() on a row's first touch: add its image. */
    RunLog::RowImage &addLogRow(BankState &bank, RowId physical);

    /** Set a row's close stamp, keeping it on stampedRows_. */
    void
    stampClose(std::size_t bank, RowId physical, Time t)
    {
        Row &row = banks_[bank].rows[physical];
        row.lastCloseAt = t;
        if (!row.stampListed) {
            row.stampListed = true;
            stampedRows_.emplace_back(bank, physical);
        }
        if (runLog_ != nullptr) [[unlikely]]
            logRow(banks_[bank], physical).stamped = true;
    }

    /** Flip-composed view of a row's contents. */
    static RowData viewOf(const Row &row);

    /** Overwrite all open rows with the column-wise majority. */
    void majorityMerge(BankState &bank);

    /** Scratch state while a loop iteration is being recorded. */
    struct LoopRecorder
    {
        bool active = false;
        bool inRefresh = false;  //!< suppress touched-row hooks
        DeviceCounters countersAtStart;
        /** (bank, row) refreshed during the recorded iteration. */
        std::vector<std::pair<std::size_t, RowId>> refreshTargets;
    };

    DeviceConfig cfg_;
    /** log2(rowsPerSubarray), a power of two (the constructor checks). */
    int subarrayShift_ = 0;
    /** calibrate(cfg_.profile): a function of the family alone. */
    CalibratedDistributions cal_;
    RowMapping mapping_;
    DisturbanceModel disturb_;
    std::vector<BankState> banks_;
    LoopRecorder recorder_;

    /**
     * The one loop record, filled while recording and reused, buffers
     * and all, by every recording after it.  One suffices: a loop
     * cannot record while an enclosing loop records (the executor's
     * recording flag blocks it), and an outer loop's record is dead
     * once its replay and phase-break iteration have run -- inner
     * loops of that live iteration may then record over it.
     */
    LoopRecord loopRecord_;

    /** The log being filled, between beginLog() and endLog() unless
     *  spoilLog() stopped it. */
    RunLog *runLog_ = nullptr;

    /**
     * What a fill gathers, in the RunLog fields of the same names, for
     * endLog() to copy into the log: one set of buffers serves every
     * log, and a log's own keep the sizes of its fills.
     */
    struct LogFill
    {
        std::vector<RunLog::RowImage> rows;
        std::vector<std::array<float, 3>> damage;  //!< of every row
        std::vector<std::pair<std::uint32_t, RowId>> pushes;
        std::vector<LoggedClose> closes;
        std::vector<RowId> closeRows;
    };
    LogFill logFill_;

    /**
     * The log being filled cannot be reused -- a WR ran (its data may
     * change per run), a REF, or a hook's refresh -- so stop filling
     * it: endLog() will fail.
     */
    void
    spoilLog()
    {
        runLog_ = nullptr;
        disturb_.endCapture(nullptr);
    }

    /**
     * Every row whose lastCloseAt may lie after a later loop's start:
     * the rows stamped since the last shiftLoopTimestamps() and the
     * rows that shift moved (Row::stampListed marks them).  That shift
     * walks only these.
     */
    std::vector<std::pair<std::size_t, RowId>> stampedRows_;

    // Replay scratch, kept warm across replays.
    std::array<RowId, kTrrWindow> ringScratch_{};
    Celsius temperature_;
    /**
     * Moves whenever a row's data or weak cells may have changed, so an
     * unchanged value proves neither did; the close memo and the prefix
     * logs read it.  Every site that changes either bumps it -- a
     * missed site is a silently wrong result:
     *  - reset() (frees every populated row's cells)
     *  - writeRowDirect(), when the row's data changes or its cells'
     *    trialScale redraws
     *  - wr(), when an open row's data changes
     *  - the CoMRA copy in act(), when the destination's data changes
     *  - majorityMerge(), when the group's rows differ
     *  - restoreRow(), when a flipped cell toggles its bit
     * populateRow() needs none: every row a memo entry or a log reads
     * was populated before it was filled, and rows only stop being
     * populated through reset(); drawing a row's CoMRA/SiMRA factors
     * fills in values nothing has read.  Damage resets need none
     * either: a close adds to the damage but never reads it.
     */
    std::uint64_t dataEpoch_ = 1;
    bool trrEnabled_ = false;
    Time now_ = 0;
    std::uint64_t refCounter_ = 0;
    Rng trrRng_;
    Rng noiseRng_;
    DeviceCounters counters_;
    std::size_t populatedRows_ = 0;
    MitigationHook *mitigation_ = nullptr;
    std::vector<RowId> mitigationRefresh_;  //!< scratch for hook calls
    std::vector<const RowData *> mergeInputs_;  //!< scratch for merges
};

} // namespace pud::dram

#endif // PUD_DRAM_DEVICE_H
