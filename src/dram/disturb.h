/**
 * @file
 * The read-disturbance model: turns aggressor-row close events into
 * damage on neighbouring rows' weak cells.
 *
 * This is the calibrated substitute for real DRAM silicon.  Every
 * condition dependence the paper characterizes is a multiplicative
 * factor on the per-event damage:
 *
 *   damage += sideStrength * distanceWeight
 *             * F_tech * F_press(t_on) * F_temp * F_data * F_region
 *             * F_timing / (2 * baseHc(cell))
 *
 * normalized so that an alternating double-sided RowHammer at the
 * reference conditions flips the weakest cell after exactly baseHc
 * hammers per aggressor.  Factor magnitudes are calibrated to the
 * paper's observations; see DESIGN.md §4 for the anchor table.
 */

#ifndef PUD_DRAM_DISTURB_H
#define PUD_DRAM_DISTURB_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "dram/cell.h"
#include "dram/config.h"
#include "dram/datapattern.h"
#include "dram/types.h"
#include "util/units.h"

namespace pud::dram {

/** Context of one aggressor row (group) being closed. */
struct CloseEvent
{
    /** Sorted physical rows that were open together (1 for non-SiMRA). */
    std::vector<RowId> rows;

    TechClass cls = TechClass::Conventional;

    /** Number of simultaneously activated rows (SiMRA only). */
    int simraN = 1;

    /** How long the row (group) stayed open. */
    Time tOn = 0;

    /** Violated PRE->ACT gap of the CoMRA cycle (both halves). */
    Time comraDelay = 0;

    /**
     * The other operand of the copy cycle.  The CoMRA amplification is
     * local to the just-closed/just-opened wordline pair: it only
     * applies to victims near *both* operands, which is why
     * single-sided CoMRA behaves like far double-sided RowHammer
     * (paper Obs. 5).
     */
    RowId comraPartner = kNoRow;

    /** True when this close is the destination half of the cycle. */
    bool comraDstRole = false;

    /**
     * The aggressor's off-time (t_AggOFF) *preceding* this open: the
     * gap between the row's previous close and this activation.
     * Longer off-times strengthen conventional hammering (RowPress
     * companion effect; what makes far double-sided RowHammer and
     * single-sided CoMRA beat plain single-sided RowHammer, Obs. 5).
     */
    Time reopenGap = 0;

    /** SiMRA ACT->PRE / PRE->ACT gaps of the ACT-PRE-ACT open. */
    Time simraActToPre = 0;
    Time simraPreToAct = 0;
};

/**
 * Aggregate exposure of one victim row, for static prediction.
 *
 * Where CloseEvent describes one concrete close, AggregateExposure
 * describes the *sum* of a program's closes as seen by one victim:
 * adjacency-weighted event count plus the representative condition
 * factors (sidedness, on-time, timing-delay) shared by those events.
 */
struct AggregateExposure
{
    TechClass cls = TechClass::Conventional;

    /** Number of simultaneously activated rows (SiMRA only). */
    int simraN = 2;

    /**
     * Aggressor close events weighted by distance (1.0 at distance 1,
     * DeviceConfig::distance2Weight at distance 2) summed over the
     * program.
     */
    double weightedCloses = 0;

    /** Representative per-close aggressor on-time. */
    Time tOn = 0;

    /** CoMRA PRE->ACT copy delay (Comra class only). */
    Time comraDelay = 0;

    /** SiMRA ACT->PRE / PRE->ACT gaps (Simra class only). */
    Time simraActToPre = 0;
    Time simraPreToAct = 0;

    /** Aggressors on both sides (sandwich) vs one side only. */
    bool doubleSided = true;

    /** Victim's spatial region within its subarray. */
    Region region = Region::Middle;

    Celsius temperature = 80.0;
};

/**
 * Pure threshold fold: the fractional damage a victim cell whose
 * double-sided reference HC_first is `base_hc` accrues under an
 * aggregate exposure -- the same multiplicative factor chain
 * DisturbanceModel::applyClose walks, evaluated population-neutrally
 * (zero temperature slope, majority flip direction, unit data gain,
 * mean distance-1 split).  The cell reads flipped once the returned
 * value reaches 1.0.
 *
 * This is what the static effect predictor (pud::lint) folds a
 * program's per-row activation totals through, using the family's
 * Table 2 anchors as `base_hc`, so the prediction and the device agree
 * by construction.
 */
double foldThreshold(const DeviceConfig &cfg, const AggregateExposure &e,
                     double base_hc);

/**
 * One weak cell's net damage over one recorded loop iteration, for the
 * executor's loop fast path.
 */
struct DamageDelta
{
    WeakCell *cell;
    /** Per-class deposits since the cell's last reset (indexed by
     *  TechClass), each summed in event order. */
    float delta[3];
    bool reset;  //!< charge restored during the iteration (self-refresh, WR)
};

/** Net damage of one loop iteration, one entry per cell of every
 *  touched row; replayable k more times. */
using DamageRecord = std::vector<DamageDelta>;

/**
 * Dense indices for weak cells, in first-touch order, without
 * allocating once warm.
 *
 * A generation-stamped open-addressing table maps a cell to its index:
 * a slot is live only while its stamp equals the current generation,
 * so clear() is O(1) -- it bumps the generation -- and the slot array
 * keeps its capacity.  The table grows at load 1/2 and is swept once
 * whenever the (deliberately narrow) generation counter wraps.
 */
class CellIndex
{
  public:
    /** The cell's index; a cell not seen since clear() gets size(). */
    std::uint32_t
    operator()(const WeakCell &cell)
    {
        if (slots_.empty()) [[unlikely]]
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(&cell);; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.gen != gen_) {
                if (2 * (cells_.size() + 1) > slots_.size()) [[unlikely]] {
                    grow();
                    return (*this)(cell);
                }
                s = {&cell, static_cast<std::uint32_t>(cells_.size()), gen_};
                cells_.push_back(&cell);
                return s.index;
            }
            if (s.cell == &cell)
                return s.index;
        }
    }

    std::size_t size() const { return cells_.size(); }

    /** Forget every cell. */
    void clear();

  private:
    struct Slot
    {
        const WeakCell *cell = nullptr;
        std::uint32_t index = 0;  //!< into cells_
        std::uint8_t gen = 0;     //!< live iff equal to gen_
    };

    /**
     * A cell's first probe slot.  Fibonacci hashing: the product's
     * high bits mix every address bit (cells sit at a fixed stride, so
     * the low bits do not).
     */
    std::size_t
    home(const WeakCell *cell) const
    {
        return static_cast<std::size_t>(
            (reinterpret_cast<std::uintptr_t>(cell) *
             0x9E3779B97F4A7C15ULL) >> shift_);
    }

    /** Double the table (64 slots at first) and re-insert cells_. */
    void grow();

    std::vector<Slot> slots_;  //!< power-of-two size
    int shift_ = 0;  //!< 64 - log2(slots_.size()), set by grow()
    /** Current generation, never 0 (the stamp of a never-used slot).
     *  Eight bits, so the wrap sweep runs every 255 clears: negligible
     *  next to the runs it spans, and exercised by tests. */
    std::uint8_t gen_ = 1;
    std::vector<const WeakCell *> cells_;  //!< by index
};

/**
 * The deposits and charge resets of a run of live commands, folded so
 * the run re-applies without a branch per event (DESIGN.md §4.2).  A
 * cell the run resets ends at the value the run left it at, whatever
 * it started from, so it is simply set; every other accumulator takes
 * the run's adds to it, in live order: `d` into the deposit's class,
 * then the conventional cross-transfer `x`, exactly as the close memo
 * re-applies a deposit (adds of +0 dropped: they leave a non-negative
 * accumulator's bits unchanged).  Adds to different accumulators
 * commute, so each accumulator's are kept together, as runs that
 * alternate two values -- a repeated close deposits the same amounts,
 * one per aggressor beside the victim -- and summed one by one in a
 * register.  Re-applied to the same cells after the same data and
 * conditions, the run's deposits are the same, so the result is the
 * one live execution would give.  DamageCapture fills it.
 */
class DamageLog
{
  public:
    /** Re-apply the run. */
    void apply() const;

  private:
    friend class DamageCapture;

    struct Set
    {
        WeakCell *cell;
        std::array<float, 3> damage;
    };
    /** An accumulator and how many of runs_ it takes, after its
     *  predecessors'. */
    struct Acc
    {
        float *acc;
        std::uint32_t runs;
    };
    /** `count` adds, alternating `a` and `b` (a first). */
    struct Run
    {
        float a, b;
        std::uint32_t count;
    };
    std::vector<Set> sets_;
    std::vector<Acc> accs_;
    std::vector<Run> runs_;
};

/**
 * Captures a run's deposits and charge resets, in live order, and
 * folds them into a DamageLog.  One capture serves every log a device
 * fills, so its buffers -- sized by the longest run -- are shared.
 */
class DamageCapture
{
  public:
    /** Start a run that keeps at most `cap` DamageLog runs. */
    void
    start(std::size_t cap)
    {
        index_.clear();
        firsts_.clear();
        cells_.clear();
        classes_.clear();
        accs_.clear();
        lastRow_ = nullptr;
        runs_.clear();
        cap_ = cap;
        over_ = false;
    }

    /** A deposit of `d` (cross-transfer `x`, +0 if none) into one of
     *  `row`'s cells. */
    void
    deposit(Row &row, WeakCell &cell, TechClass cls, float d, float x)
    {
        const std::uint32_t i = entry(row, cell);
        const auto c = static_cast<std::uint32_t>(cls);
        if (d != 0.0f)
            add(i, c, d);
        if (c != 0 && x != 0.0f)
            add(i, 0, x);
    }

    /** A charge reset of every cell of `row`. */
    void
    reset(Row &row)
    {
        if (row.cells.empty())
            return;
        Cell *e = &cells_[entry(row, row.cells.front())];
        for (std::size_t k = 0; k < row.cells.size(); ++k)
            e[k].reset = true;
    }

    /** Fold the run into `out`, right after it was applied live;
     *  false (leaving `out` unusable) if it outgrew its cap. */
    bool fold(DamageLog &out);

  private:
    struct Cell
    {
        WeakCell *cell;
        bool reset;
    };
    /** A cell's runs, per class: the runs ended so far (during
     *  fold(), the next slot in `out`) and the open run. */
    struct Classes
    {
        std::array<std::uint32_t, 3> ended{};
        std::array<DamageLog::Run, 3> open{};
    };
    /** An ended run of a cell's class, in live order. */
    struct Run
    {
        std::uint32_t key;  //!< cell index << 2 | class
        DamageLog::Run run;
    };
    /**
     * The cell's index in cells_.  A row's cells take consecutive
     * entries on its first touch, found through its first cell's
     * CellIndex entry; deposits and resets come a row at a time, so the
     * last row's first entry is kept at hand.
     */
    std::uint32_t
    entry(Row &row, WeakCell &cell)
    {
        if (&row != lastRow_) [[unlikely]] {
            const std::uint32_t r = index_(row.cells.front());
            if (r == firsts_.size()) {
                firsts_.push_back(static_cast<std::uint32_t>(cells_.size()));
                for (WeakCell &c : row.cells)
                    cells_.push_back({&c, false});
                classes_.resize(cells_.size());
            }
            lastRow_ = &row;
            lastFirst_ = firsts_[r];
        }
        return lastFirst_ +
               static_cast<std::uint32_t>(&cell - row.cells.data());
    }

    /** Extend cell `i`'s open run of class `c` by `v`, or end it and
     *  open another.  A run's second add fixes its `b`. */
    void
    add(std::uint32_t i, std::uint32_t c, float v)
    {
        Classes &k = classes_[i];
        DamageLog::Run &r = k.open[c];
        if (r.count == 0 && k.ended[c] == 0)
            accs_.push_back(i << 2 | c);
        if (r.count == 1)
            r.b = v;
        else if (r.count > 1 && v != (r.count % 2 != 0 ? r.b : r.a))
            end(i, c);
        if (r.count == 0)
            r.a = v;
        ++r.count;
    }

    /** End cell `i`'s open run of class `c`. */
    void
    end(std::uint32_t i, std::uint32_t c)
    {
        Classes &e = classes_[i];
        if (runs_.size() < cap_)
            runs_.push_back({i << 2 | c, e.open[c]});
        else
            over_ = true;
        ++e.ended[c];
        e.open[c].count = 0;
    }

    CellIndex index_;  //!< rows, by their first cell
    std::vector<std::uint32_t> firsts_;  //!< by row: its first entry
    std::vector<Cell> cells_;
    std::vector<Classes> classes_;  //!< by cells_ entry
    /** The accumulators added to, cell index << 2 | class. */
    std::vector<std::uint32_t> accs_;
    const Row *lastRow_ = nullptr;
    std::uint32_t lastFirst_ = 0;
    std::vector<Run> runs_;  //!< ended runs, at most cap_
    std::size_t cap_ = 0;
    bool over_ = false;  //!< a run was dropped at the cap
};

/**
 * Folds a stream of damage events into one DamageDelta per cell,
 * without allocating once warm.  A row's cells take consecutive
 * entries, zeroed, on the row's first touch; the row's `foldAt` finds
 * them again once checked against the entry it names, so a deposit or
 * a whole row's reset costs one lookup.
 */
class DamageFold
{
  public:
    /** Add `delta` to the `cls` sum of `cell`, one of `row`'s cells. */
    void
    add(Row &row, WeakCell &cell, TechClass cls, float delta)
    {
        entries(row)[&cell - row.cells.data()]
            .delta[static_cast<int>(cls)] += delta;
    }

    /** A charge restoration of every cell of `row`: zero their sums
     *  and latch `reset`. */
    void
    reset(Row &row)
    {
        DamageDelta *e = entries(row);
        for (std::size_t k = 0; k < row.cells.size(); ++k)
            e[k] = {e[k].cell, {0.0f, 0.0f, 0.0f}, true};
    }

    /**
     * The row's entries, one per cell in order, appended (zeroed) on
     * the row's first touch; valid until the next append.
     */
    DamageDelta *
    entries(Row &row)
    {
        if (row.foldAt >= net_.size() ||
            net_[row.foldAt].cell != row.cells.data()) {
            row.foldAt = static_cast<std::uint32_t>(net_.size());
            for (WeakCell &cell : row.cells)
                net_.push_back({&cell, {0.0f, 0.0f, 0.0f}, false});
        }
        return net_.data() + row.foldAt;
    }

    /** Forget every row. */
    void clear() { net_.clear(); }

    /** The folded entries, a row's cells together, rows in first-touch
     *  order. */
    const DamageRecord &net() const { return net_; }

    /** Swap the folded entries into `out` (both buffers keep their
     *  capacity), then clear. */
    void
    take(DamageRecord &out)
    {
        out.swap(net_);
        clear();
    }

  private:
    DamageRecord net_;
};

/**
 * Applies close events to a bank's rows.  Owned by Device; apart from
 * calibration constants it holds an optional recording sink and a
 * memo of recent close outcomes.
 *
 * The memo (DESIGN.md §4.1) makes a repeated close cheap: a close
 * whose key -- every CloseEvent field, the temperature and the row
 * array -- matches an entry filled under the current generation, with
 * every victim's lastSide as it was at fill, re-applies the entry's
 * recorded deposits (the same float adds into the same accumulators in
 * the same order) instead of recomputing them.  Everything else a
 * close reads is row data and weak-cell parameters, so whoever owns
 * the rows must pass a new data epoch whenever either changes.  (A
 * row's CoMRA/SiMRA factors may be drawn after an entry over it was
 * filled, but only by a close that is about to read them -- so no
 * entry ever read their undrawn values.)
 */
class DisturbanceModel
{
  public:
    DisturbanceModel(const DeviceConfig &cfg);

    /**
     * Apply one close event to the rows of a bank.
     *
     * @param rows        the bank's physical row array; the memo keys
     *                    on its address, so a new array in the same
     *                    place needs a new data epoch
     * @param event       the closed aggressor context
     * @param temperature current chip temperature
     * @param data_epoch  the row owner's count of changes to row data
     *                    and weak cells: when it moves, the memo
     *                    forgets every entry
     * @param bank        the array's bank index: spreads the banks'
     *                    closes over the memo's slots (addresses would
     *                    make its hit counts run-dependent)
     * @return true iff the memo supplied the deposits
     */
    bool applyClose(std::vector<Row> &rows, const CloseEvent &event,
                    Celsius temperature, std::uint64_t data_epoch,
                    std::uint32_t bank = 0);

    /**
     * Forget every memoized close outcome.  applyClose() does so when
     * the data epoch moves (a repeated close would otherwise replay
     * deposits computed from the old contents, or into freed rows) and
     * when the memo is full.
     */
    void
    forgetCloses()
    {
        ++memoGen_;
        memoEntries_.clear();
        memoRows_.clear();
        memoVictims_.clear();
        memoDeposits_.clear();
    }

    /** Start folding damage additions into a record. */
    void
    beginRecording()
    {
        recording_ = tapped_ = true;
        fold_.clear();
    }

    /** Stop folding and swap the record into `out` (both buffers keep
     *  their capacity). */
    void
    endRecording(DamageRecord &out)
    {
        recording_ = false;
        tapped_ = capturing_;
        fold_.take(out);
    }

    /**
     * Re-apply a record's net per-iteration effect `times` more times.
     *
     * Per cell, one iteration is an affine map: if the cell was reset
     * during the iteration (it was activated/written, restoring its
     * charge), its post-iteration damage is a fixed point and further
     * iterations leave it unchanged; otherwise the iteration adds a
     * constant per class, which scales linearly with the remaining
     * trip count.
     */
    static void replay(const DamageRecord &record, std::uint64_t times);

    /** Record a charge restoration of every cell of `row` while
     *  recording or capturing (no-op otherwise). */
    void
    noteReset(Row &row)
    {
        if (tapped_) [[unlikely]]
            tapReset(row);
    }

    /** Start capturing every deposit and charge reset, keeping at
     *  most `cap` runs of adds. */
    void
    beginCapture(std::size_t cap)
    {
        capturing_ = tapped_ = true;
        capture_.start(cap);
    }

    /**
     * Stop capturing; with `out`, fold the run into it and return
     * whether it stayed within its cap (false without `out`).
     */
    bool
    endCapture(DamageLog *out)
    {
        capturing_ = false;
        tapped_ = recording_;
        return out != nullptr && capture_.fold(*out);
    }

    // --- individual factors, exposed for unit tests -------------------

    /** Press gain vs t_AggOn for a technique class and SiMRA N. */
    double pressGain(TechClass cls, int simra_n, Time t_on) const;

    /** CoMRA PRE->ACT delay gain (1.0 at <= 7.5 ns). */
    double comraDelayGain(Time delay) const;

    /** SiMRA ACT->PRE / PRE->ACT timing gain. */
    double simraTimingGain(Time act_to_pre, Time pre_to_act) const;

    /** Temperature gain for a class (per-cell slope for conventional). */
    double tempGain(TechClass cls, int simra_n, Celsius temp,
                    const WeakCell &cell) const;

    /** Data-coupling gain given aggressor data and the victim bit. */
    double dataGain(const RowData &aggressor, ColId col,
                    bool victim_bit) const;

    /** Spatial region gain for a class. */
    double regionGain(TechClass cls, int simra_n, Region region) const;

    /** Aggressor off-time gain (conventional class only). */
    static double offGain(Time reopen_gap);

    /**
     * The reopen gap a close is memoized under: `reopen_gap` clamped
     * to [0, the smallest gap offGain() maps to its cap], the range
     * over which offGain() -- the gap's only reader -- still varies.
     */
    static Time offGapKey(Time reopen_gap);

    /** Region of a physical row within its subarray. */
    Region regionOf(RowId physical_row) const;

  private:
    /** Cross-class damage transfer coefficient. */
    static double crossTransfer(TechClass from, TechClass to);

    /**
     * Apply one deposit (shared by the live path and replay): the full
     * amount into the class's own accumulator, and a calibrated
     * cross-transfer fraction into the other classes whose flip
     * direction matches (see crossTransfer()).
     */
    static void deposit(WeakCell &cell, TechClass cls, float delta);

    /**
     * Whether a `cls` deposit on the cell also feeds the conventional
     * accumulator.  Damage only transfers between classes pulling the
     * cell's bit the same way, and only into the conventional
     * accumulator: the other transfers are zero, and adding
     * float(0.0 * delta) to a non-negative accumulator is an exact
     * no-op, so they are skipped.
     */
    static bool
    crossesToConventional(const WeakCell &cell, TechClass cls)
    {
        return cls != TechClass::Conventional &&
               cell.fromBit(cls) == cell.fromBit(TechClass::Conventional);
    }

    /** The conventional accumulator's share of a crossing deposit: a
     *  pure function of the class and `delta`. */
    static float
    crossAmount(TechClass cls, float delta)
    {
        return static_cast<float>(
            crossTransfer(cls, TechClass::Conventional) * delta);
    }

    /** dataGain() per dataIndex(). */
    static int dataIndex(const RowData &aggressor, ColId col,
                         bool victim_bit);

    /** One (victim, aggressor) adjacency of a close event. */
    struct Contribution
    {
        RowId victim;
        RowId aggressor;
        int distance;
        int side;  //!< -1: aggressor below victim, +1: above
    };

    DeviceConfig cfg_;
    RowId rowsPerSubarray_;

    /**
     * Scratch for applyClose, reused across close events.  Every close
     * of a fleet sweep's hammer loop used to heap-allocate a fresh
     * contribution vector; at 10^5+ modules that allocation churn is
     * measurable, so the model keeps the buffer warm instead (cleared,
     * never shrunk).
     */
    std::vector<Contribution> contribScratch_;

    /** dataGain() by dataIndex(): a function of the family alone. */
    double dataGain_[4] = {};

    bool recording_ = false;
    DamageFold fold_;
    bool capturing_ = false;
    DamageCapture capture_;
    /** Recording or capturing: the one flag the close paths test. */
    bool tapped_ = false;

    /** A deposit into or a reset of one of `row`'s cells while
     *  recording or capturing: out of line, so the live paths' loops
     *  stay small. */
    void tap(Row &row, WeakCell &cell, TechClass cls, float d, float x);
    void tapReset(Row &row);

    // --- close memo ------------------------------------------------------

    /** Memo slots (direct-mapped by key hash; a power of two). */
    static constexpr std::size_t kMemoSlots = 256;
    /** Misses of a slot's key, since its last fill, that admit it. */
    static constexpr std::uint32_t kMemoAdmit = 2;
    /**
     * What the memo holds before it starts over.  A fill begins only
     * below every cap, and each buffer is reserved once, at its cap
     * plus what one close can add, so the buffers never grow and only
     * the filled part of them is ever touched.
     */
    static constexpr std::size_t kMemoEntries = 64;
    static constexpr std::size_t kMemoRows = 256;
    static constexpr std::size_t kMemoVictims = 256;
    static constexpr std::size_t kMemoDeposits = 1024;
    /** Rows of the widest SiMRA group, and the deposits one close
     *  can add: 4 victims per row with up to 8 weak cells each. */
    static constexpr std::size_t kMaxGroupRows = 32;
    static constexpr std::size_t kMemoSlack = kMaxGroupRows * 4 * 8;

    /** The scalar part of a close's memo key; its rows are compared
     *  against the entry's copy in memoRows_. */
    struct MemoKey
    {
        const Row *rowArray = nullptr;  //!< the array closed into
        Time tOn = 0;
        Time reopenGap = 0;
        Time comraDelay = 0;
        Time simraActToPre = 0;
        Time simraPreToAct = 0;
        std::uint64_t temperature = 0;  //!< the Celsius value's bits
        RowId comraPartner = kNoRow;
        std::int32_t simraN = 0;
        std::uint32_t nrows = 0;
        TechClass cls = TechClass::Conventional;
        bool comraDstRole = false;

        bool operator==(const MemoKey &) const = default;
    };

    /** A victim of a memoized close: valid while its lastSide still
     *  reads `before`; a hit leaves it at `after`.  Its `deposits`
     *  follow its predecessors' in memoDeposits_, all of class `cls`. */
    struct MemoVictim
    {
        Row *row;
        std::uint32_t deposits;
        std::int8_t before;
        std::int8_t after;
        TechClass cls;
    };

    /**
     * One recorded deposit(): `d` into the victim class's accumulator,
     * then the conventional cross-transfer `x`, which is +0 where
     * there is none.  Accumulators start at +0 and only receive finite
     * non-negative deposits, so adding +0 leaves their bits unchanged.
     */
    struct MemoDeposit
    {
        WeakCell *cell;
        float d;
        float x;
    };

    /** tap() for `n` memoized deposits into `row`'s cells, in order;
     *  a recording finds the row's fold entries once. */
    void tapVictim(Row &row, TechClass cls, const MemoDeposit *m,
                   std::uint32_t n);

    /** A memoized close: its key and where its outcome lives in the
     *  flat buffers. */
    struct MemoEntry
    {
        MemoKey key;
        std::uint32_t rowsAt;  //!< into memoRows_
        std::uint32_t victimsAt, victims;
        std::uint32_t depositsAt;
    };

    static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

    /**
     * The last key hash that reached a slot, in generation `gen`, and
     * up to two entries of that key.  A key recurs with its victims in
     * more than one lastSide state -- a probe's first close finds them
     * fresh from a host write, its later ones in the steady state --
     * so each state gets a way, and a fill replaces the less recently
     * used one (hit or filled).
     */
    struct MemoSlot
    {
        std::uint64_t hash = 0;
        std::uint64_t gen = 0;
        std::uint32_t misses = 0;  //!< since the slot's last fill
        std::uint32_t way[2] = {kNoEntry, kNoEntry};  //!< into memoEntries_
        std::uint32_t victim = 0;  //!< the way the next fill replaces
    };

    /** applyClose() without the memo; with `kFill` it also appends
     *  the victims and deposits to the memo's buffers. */
    template <bool kFill>
    void computeClose(std::vector<Row> &rows, const CloseEvent &event,
                      Celsius temperature);

    /** Re-apply an entry's outcome, or return false (touching
     *  nothing) if a victim's lastSide moved since the fill. */
    bool replayMemo(const MemoEntry &entry);

    /**
     * Generation of the memo: a slot is live only while this equals
     * its `gen`.  Starts at 1 so never-used slots (gen 0) are dead;
     * forgetCloses() bumps it.
     */
    std::uint64_t memoGen_ = 1;
    /** The data epoch the entries were filled under (Device::dataEpoch_
     *  lists what moves it).  The temperature is part of the key, and
     *  lastSide is validated per victim. */
    std::uint64_t memoEpoch_ = 0;
    /** Sized on the first lookup, when the buffers below are reserved
     *  at their caps, so a warm device's closes do not allocate. */
    std::vector<MemoSlot> memoSlots_;
    // Flat entry storage, emptied with each generation.
    std::vector<MemoEntry> memoEntries_;
    std::vector<RowId> memoRows_;
    std::vector<MemoVictim> memoVictims_;
    std::vector<MemoDeposit> memoDeposits_;
};

} // namespace pud::dram

#endif // PUD_DRAM_DISTURB_H
