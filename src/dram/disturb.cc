#include "dram/disturb.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace pud::dram {

namespace {

/**
 * Piecewise log-log interpolation through (t_ns, gain) anchor points,
 * clamped to the endpoint values outside the anchor range.
 */
double
interpLogLog(const double (&ts)[4], const double (&gs)[4], double t_ns)
{
    if (t_ns <= ts[0])
        return gs[0];
    if (t_ns >= ts[3])
        return gs[3];
    for (int i = 0; i < 3; ++i) {
        if (t_ns <= ts[i + 1]) {
            const double f = (std::log(t_ns) - std::log(ts[i])) /
                             (std::log(ts[i + 1]) - std::log(ts[i]));
            return std::exp(std::log(gs[i]) +
                            f * (std::log(gs[i + 1]) - std::log(gs[i])));
        }
    }
    return gs[3];
}

// Press-gain anchors vs t_AggOn, calibrated to paper Figs. 8 and 17:
// RowPress 31.15x at 70.2us (Obs. 6), CoMRA 78.74x overall => dst-side
// gain 156.5 (DESIGN.md §4), and the CoMRA-vs-RowPress crossovers of
// Obs. 7 at 144ns / 7.8us / 70.2us.
constexpr double kPressT[4] = {36.0, 144.0, 7800.0, 70200.0};
constexpr double kPressConv[4] = {1.0, 1.878, 11.5, 31.15};
constexpr double kPressComra[4] = {1.0, 2.756, 14.48, 156.5};

// SiMRA press end factors per N (Obs. 18: 144.93x - 270.27x at 70.2us).
constexpr double kSimraPressEnd[5] = {270.27, 230.0, 185.0, 144.93, 160.0};

// Fractional log-progress of the SiMRA press curve at the anchor times.
constexpr double kSimraPressW[4] = {0.0, 0.15, 0.67, 1.0};

// CoMRA PRE->ACT delay: HC_first increase from 7.5ns to 12ns (Obs. 8).
double
comraDelayEnd(Manufacturer mfr)
{
    switch (mfr) {
      case Manufacturer::SKHynix: return 3.10;
      case Manufacturer::Micron:  return 1.18;
      case Manufacturer::Samsung: return 1.17;
      case Manufacturer::Nanya:   return 3.01;
    }
    return 1.0;
}

// SiMRA spatial-region damage gains per N index (Obs. 21: e.g. for
// 4-row activation the beginning of the subarray sees the highest
// HC_first; for 8-row activation the end does).
constexpr double kSimraRegionGain[5][kNumRegions] = {
    {0.95, 1.00, 1.05, 1.00, 0.95},  // N=2
    {0.70, 0.95, 1.10, 1.05, 1.00},  // N=4
    {1.05, 1.10, 1.00, 0.90, 0.70},  // N=8
    {0.90, 1.05, 1.10, 0.95, 0.85},  // N=16
    {1.00, 0.95, 1.05, 1.00, 0.90},  // N=32
};

// Non-sandwiched (edge) victims of a SiMRA group see only a mild
// per-N gain rather than the full SiMRA amplification: the paper's
// single-sided SiMRA beats single-sided RowHammer by just 1.17x at
// N=32 (Obs. 16) while sandwiched victims see >100x reductions, and
// the average HC_first falls 1.47x from N=2 to N=32 (Obs. 17).
constexpr double kSimraEdgeGain[5] = {0.30, 0.33, 0.36, 0.40, 0.44};

/** Damage scale for a cell whose flip direction is the class minority. */
double
minorityScale(TechClass cls, const WeakCell &cell)
{
    if (cls == TechClass::Simra)
        return cell.dirSimra == FlipDirection::ZeroToOne ? 0.05 : 1.0;
    return cell.dirConv == FlipDirection::OneToZero ? 0.85 : 1.0;
}

} // namespace

void
CellIndex::clear()
{
    cells_.clear();
    if (++gen_ == 0) {
        // Wrapped: stamps of 255 generations ago would read as live.
        for (Slot &s : slots_)
            s.gen = 0;
        gen_ = 1;
    }
}

void
CellIndex::grow()
{
    const std::size_t size = slots_.empty() ? 64 : 2 * slots_.size();
    slots_.assign(size, Slot{});
    shift_ = 64 - std::countr_zero(size);
    const std::size_t mask = size - 1;
    for (std::size_t k = 0; k < cells_.size(); ++k) {
        std::size_t i = home(cells_[k]);
        while (slots_[i].gen == gen_)
            i = (i + 1) & mask;
        slots_[i] = {cells_[k], static_cast<std::uint32_t>(k), gen_};
    }
}

DisturbanceModel::DisturbanceModel(const DeviceConfig &cfg)
    : cfg_(cfg), rowsPerSubarray_(cfg.rowsPerSubarray)
{
    for (int i = 0; i < 4; ++i) {
        double g = (i & 1) ? 1.0 : 0.75;
        // Local bitline alternation (checkerboard) strengthens coupling.
        if (!(i & 2)) {
            g *= 0.80;
            // Nanya's true-/anti-cell layout makes solid patterns
            // ineffective within a refresh window (paper footnote 1).
            if (cfg_.profile.trueAntiCells)
                g *= 0.05;
        }
        dataGain_[i] = g;
    }
}

double
DisturbanceModel::crossTransfer(TechClass from, TechClass to)
{
    if (from == to)
        return 1.0;
    // Cross-technique damage feeds only the conventional channel: the
    // trap-assisted leakage pathway RowHammer exploits is the common
    // denominator that multiple-row activation partially charges
    // (Obs. 22: CoMRA pre-hammering to 90% of its HC_first cuts the
    // subsequent RowHammer requirement by just 1.34x), while the
    // PuD-specific pathways are not charged by plain hammering --
    // otherwise a 90% pre-charged CoMRA accumulator would be topped up
    // by the RowHammer phase and flip at ~3x instead.
    if (to != TechClass::Conventional)
        return 0.0;
    return from == TechClass::Comra ? 0.30 : 0.35;
}

inline void
DisturbanceModel::deposit(WeakCell &cell, TechClass cls, float delta)
{
    cell.damage[static_cast<int>(cls)] += delta;
    if (crossesToConventional(cell, cls))
        cell.damage[0] += crossAmount(cls, delta);
}

void
DisturbanceModel::tap(Row &row, WeakCell &cell, TechClass cls, float d,
                      float x)
{
    if (recording_)
        fold_.add(row, cell, cls, d);
    if (capturing_)
        capture_.deposit(row, cell, cls, d, x);
}

void
DisturbanceModel::tapVictim(Row &row, TechClass cls, const MemoDeposit *m,
                            std::uint32_t n)
{
    if (recording_) {
        DamageDelta *e = fold_.entries(row);
        const auto c = static_cast<int>(cls);
        for (std::uint32_t k = 0; k < n; ++k)
            e[m[k].cell - row.cells.data()].delta[c] += m[k].d;
    }
    if (capturing_)
        for (std::uint32_t k = 0; k < n; ++k)
            capture_.deposit(row, *m[k].cell, cls, m[k].d, m[k].x);
}

void
DisturbanceModel::tapReset(Row &row)
{
    if (recording_)
        fold_.reset(row);
    if (capturing_)
        capture_.reset(row);
}

bool
DamageCapture::fold(DamageLog &out)
{
    out.sets_.clear();
    out.accs_.clear();
    out.runs_.clear();

    for (const Cell &e : cells_)
        if (e.reset)
            out.sets_.push_back({e.cell, e.cell->damage});

    // End every open run and lay each kept accumulator's runs out
    // after its predecessors', then scatter the runs into place in
    // live order.
    std::uint32_t at = 0;
    for (const std::uint32_t key : accs_) {
        const std::uint32_t i = key >> 2, c = key & 3;
        const Cell &e = cells_[i];
        if (e.reset)
            continue;
        Classes &k = classes_[i];
        if (k.open[c].count > 0)
            end(i, c);
        const std::uint32_t n = k.ended[c];
        out.accs_.push_back({&e.cell->damage[c], n});
        k.ended[c] = at;
        at += n;
    }
    if (over_)
        return false;
    out.runs_.resize(at);
    for (const Run &r : runs_) {
        if (!cells_[r.key >> 2].reset)
            out.runs_[classes_[r.key >> 2].ended[r.key & 3]++] = r.run;
    }
    return true;
}

void
DamageLog::apply() const
{
    for (const Set &s : sets_)
        s.cell->damage = s.damage;
    const Run *r = runs_.data();
    for (const Acc &a : accs_) {
        float sum = *a.acc;
        for (const Run *end = r + a.runs; r != end; ++r) {
            for (std::uint32_t k = r->count / 2; k > 0; --k) {
                sum += r->a;
                sum += r->b;
            }
            if (r->count % 2 != 0)
                sum += r->a;
        }
        *a.acc = sum;
    }
}

void
DisturbanceModel::replay(const DamageRecord &record, std::uint64_t times)
{
    // One entry per cell: its per-class sums already fold the
    // iteration, and deposits on different cells commute.
    const auto k = static_cast<float>(times);
    for (const DamageDelta &d : record) {
        if (d.reset)
            continue;  // fixed point already reached
        for (int cls = 0; cls < 3; ++cls) {
            if (d.delta[cls] != 0.0f)
                deposit(*d.cell, static_cast<TechClass>(cls),
                        d.delta[cls] * k);
        }
    }
}

double
DisturbanceModel::pressGain(TechClass cls, int simra_n, Time t_on) const
{
    const double t_ns = units::toNs(t_on);
    // A row open for less than tRAS only partially disturbs its
    // neighbours (charge restoration incomplete).
    if (t_ns < 36.0)
        return std::max(0.0, t_ns / 36.0);
    switch (cls) {
      case TechClass::Conventional:
        return interpLogLog(kPressT, kPressConv, t_ns);
      case TechClass::Comra:
        return interpLogLog(kPressT, kPressComra, t_ns);
      case TechClass::Simra: {
        const double end = kSimraPressEnd[simraIndex(simra_n)];
        double w;
        if (t_ns <= kPressT[0]) {
            w = 0.0;
        } else if (t_ns >= kPressT[3]) {
            w = 1.0;
        } else {
            w = 1.0;
            for (int i = 0; i < 3; ++i) {
                if (t_ns <= kPressT[i + 1]) {
                    const double f =
                        (std::log(t_ns) - std::log(kPressT[i])) /
                        (std::log(kPressT[i + 1]) - std::log(kPressT[i]));
                    w = kSimraPressW[i] +
                        f * (kSimraPressW[i + 1] - kSimraPressW[i]);
                    break;
                }
            }
        }
        return std::exp(std::log(end) * w);
      }
    }
    return 1.0;
}

double
DisturbanceModel::offGain(Time reopen_gap)
{
    if (reopen_gap <= 0)
        return 1.0;
    // Normalized to 1.0 at the double-sided RowHammer cycle's natural
    // off-time (tRP + t_AggOn + tRP ~= 63.5 ns); shorter off-times --
    // e.g. plain single-sided hammering at tRP -- couple more weakly,
    // matching Obs. 5 (ss-CoMRA and far-ds-RH beat ss-RH ~1.4x).
    const double ratio = units::toNs(reopen_gap) / 63.5;
    return std::min(1.05, std::pow(ratio, 0.25));
}

Time
DisturbanceModel::offGapKey(Time reopen_gap)
{
    // Bisect offGain() (non-decreasing) for the first gap at its cap.
    static const Time saturation = [] {
        const double cap = offGain(std::numeric_limits<Time>::max());
        Time lo = 0, hi = std::numeric_limits<Time>::max();
        while (hi - lo > 1) {  // offGain(lo) < cap == offGain(hi)
            const Time mid = lo + (hi - lo) / 2;
            (offGain(mid) < cap ? lo : hi) = mid;
        }
        return hi;
    }();
    return std::clamp<Time>(reopen_gap, 0, saturation);
}

double
DisturbanceModel::comraDelayGain(Time delay) const
{
    const double d_ns = units::toNs(delay);
    if (d_ns <= 7.5)
        return 1.0;
    const double end = comraDelayEnd(cfg_.profile.mfr);
    return std::pow(end, -(d_ns - 7.5) / 4.5);
}

double
DisturbanceModel::simraTimingGain(Time act_to_pre, Time pre_to_act) const
{
    double g = 1.0;
    // Partial activation at very small ACT->PRE gaps (Obs. 20).
    if (act_to_pre <= cfg_.timings.simraPartialActToPre)
        g /= 2.28;
    // Larger PRE->ACT gaps slightly strengthen the disturbance
    // (Obs. 19: 1.23x from 1.5ns to 4.5ns); normalized to 1.0 at 3ns.
    const double p_ns = units::toNs(pre_to_act);
    g *= 0.902 * std::pow(1.23, (p_ns - 1.5) / 3.0);
    return g;
}

double
DisturbanceModel::tempGain(TechClass cls, int simra_n, Celsius temp,
                           const WeakCell &cell) const
{
    const double dt = (temp - 80.0) / 30.0;
    switch (cls) {
      case TechClass::Conventional:
        return std::max(0.05, 1.0 + cell.tempSlopeConv * dt);
      case TechClass::Comra:
        return std::pow(cfg_.profile.comraTempGain50To80, dt);
      case TechClass::Simra:
        return std::pow(
            cfg_.profile.simraTempGain50To80[simraIndex(simra_n)], dt);
    }
    return 1.0;
}

int
DisturbanceModel::dataIndex(const RowData &aggressor, ColId col,
                            bool victim_bit)
{
    const bool aggr_bit = aggressor.get(col);
    return static_cast<int>(aggr_bit != victim_bit) |
           static_cast<int>(aggr_bit != aggressor.get(col ^ 1)) << 1;
}

double
DisturbanceModel::dataGain(const RowData &aggressor, ColId col,
                           bool victim_bit) const
{
    return dataGain_[dataIndex(aggressor, col, victim_bit)];
}

double
DisturbanceModel::regionGain(TechClass cls, int simra_n, Region region) const
{
    const auto r = static_cast<int>(region);
    switch (cls) {
      case TechClass::Conventional:
      case TechClass::Comra:
        // The family's spatial vulnerability profile applies to both
        // single-row and CoMRA activation (spatial variation in plain
        // RowHammer is well documented); this keeps Obs. 2 (CoMRA
        // lowers HC_first for ~99% of rows) true in every region
        // while still producing Fig. 11's per-region distributions.
        return cfg_.profile.comraRegionGain[r];
      case TechClass::Simra:
        // The family's spatial vulnerability profile underlies every
        // technique; SiMRA adds its own per-N trend on top (Obs. 21).
        return cfg_.profile.comraRegionGain[r] *
               kSimraRegionGain[simraIndex(simra_n)][r];
    }
    return 1.0;
}

Region
DisturbanceModel::regionOf(RowId physical_row) const
{
    const RowId offset = physical_row % rowsPerSubarray_;
    const auto r = std::min<RowId>(
        kNumRegions - 1, offset * kNumRegions / rowsPerSubarray_);
    return static_cast<Region>(r);
}

double
foldThreshold(const DeviceConfig &cfg, const AggregateExposure &e,
              double base_hc)
{
    if (base_hc <= 0.0 || e.weightedCloses <= 0.0)
        return 0.0;
    const DisturbanceModel model(cfg);
    // Population-neutral cell: tempSlopeConv 0 (no conventional
    // temperature trend at the population level), majority flip
    // direction, upperShare 0.5 -- so dist_w at distance 1 is exactly
    // 1.0 and minorityScale/dataGain stay out of the fold (the anchors
    // were measured at the worst-case data pattern, i.e. dataGain 1).
    const WeakCell neutral;
    const double side = e.doubleSided ? 1.0 : cfg.singleSidedScale;
    double gain = side * model.pressGain(e.cls, e.simraN, e.tOn) *
                  model.regionGain(e.cls, e.simraN, e.region) *
                  model.tempGain(e.cls, e.simraN, e.temperature, neutral);
    switch (e.cls) {
      case TechClass::Comra:
        gain *= model.comraDelayGain(e.comraDelay);
        break;
      case TechClass::Simra:
        gain *= model.simraTimingGain(e.simraActToPre, e.simraPreToAct);
        break;
      case TechClass::Conventional:
        break;
    }
    return e.weightedCloses * gain / (2.0 * base_hc);
}

bool
DisturbanceModel::replayMemo(const MemoEntry &entry)
{
    const MemoVictim *victims = memoVictims_.data() + entry.victimsAt;
    for (std::uint32_t v = 0; v < entry.victims; ++v)
        if (victims[v].row->lastSide != victims[v].before)
            return false;
    const MemoDeposit *m = memoDeposits_.data() + entry.depositsAt;
    for (std::uint32_t v = 0; v < entry.victims; ++v) {
        const TechClass cls = victims[v].cls;
        const auto c = static_cast<int>(cls);
        for (const MemoDeposit *end = m + victims[v].deposits; m != end;
             ++m) {
            // deposit(), with its cross-transfer precomputed.
            m->cell->damage[c] += m->d;
            if (cls != TechClass::Conventional)
                m->cell->damage[0] += m->x;
        }
        if (tapped_ && victims[v].deposits > 0) [[unlikely]]
            tapVictim(*victims[v].row, cls, m - victims[v].deposits,
                      victims[v].deposits);
        victims[v].row->lastSide = victims[v].after;
    }
    return true;
}

bool
DisturbanceModel::applyClose(std::vector<Row> &rows, const CloseEvent &event,
                             Celsius temperature, std::uint64_t data_epoch,
                             std::uint32_t bank)
{
    if (memoSlots_.empty()) [[unlikely]] {
        memoSlots_.resize(kMemoSlots);
        memoEntries_.reserve(kMemoEntries + 1);
        memoRows_.reserve(kMemoRows + kMaxGroupRows);
        memoVictims_.reserve(kMemoVictims + 4 * kMaxGroupRows);
        memoDeposits_.reserve(kMemoDeposits + kMemoSlack);
    }
    if (data_epoch != memoEpoch_) {
        memoEpoch_ = data_epoch;
        forgetCloses();
    }

    // The slot hash covers the fields that tell a body's closes apart;
    // the rest only take part in the full key compare.  Independent
    // products keep it off the miss path's critical chain.
    const Time gap_key = offGapKey(event.reopenGap);
    const std::uint64_t edges =
        event.rows.empty()
            ? 0
            : event.rows.front() ^
                  static_cast<std::uint64_t>(event.rows.back()) << 24;
    const auto temp_bits = std::bit_cast<std::uint64_t>(temperature);
    const std::uint64_t h =
        (edges ^ static_cast<std::uint64_t>(event.rows.size()) << 48 ^
         static_cast<std::uint64_t>(event.cls) << 56 ^
         static_cast<std::uint64_t>(event.comraDstRole) << 60 ^
         static_cast<std::uint64_t>(bank) << 40) *
            0x9E3779B97F4A7C15ULL ^
        static_cast<std::uint64_t>(event.tOn) * 0xC2B2AE3D27D4EB4FULL ^
        static_cast<std::uint64_t>(gap_key) * 0x165667B19E3779F9ULL ^
        (static_cast<std::uint64_t>(event.comraPartner) ^ temp_bits) *
            0xD6E8FEB86659FD93ULL;

    MemoSlot &slot = memoSlots_[h >> (64 - std::countr_zero(kMemoSlots))];
    if (slot.gen != memoGen_ || slot.hash != h) {
        // A new key takes the slot over.
        slot = {h, memoGen_, 0, {kNoEntry, kNoEntry}, 0};
    }

    MemoKey key;
    key.rowArray = rows.data();
    key.tOn = event.tOn;
    key.reopenGap = gap_key;
    key.comraDelay = event.comraDelay;
    key.simraActToPre = event.simraActToPre;
    key.simraPreToAct = event.simraPreToAct;
    key.temperature = temp_bits;
    key.comraPartner = event.comraPartner;
    key.simraN = event.simraN;
    key.nrows = static_cast<std::uint32_t>(event.rows.size());
    key.cls = event.cls;
    key.comraDstRole = event.comraDstRole;

    for (std::uint32_t w = 0; w < 2; ++w) {
        if (slot.way[w] == kNoEntry)
            continue;
        const MemoEntry &e = memoEntries_[slot.way[w]];
        if (e.key == key &&
            std::equal(event.rows.begin(), event.rows.end(),
                       memoRows_.begin() + e.rowsAt) &&
            replayMemo(e)) {
            slot.victim = 1 - w;
            return true;
        }
    }

    // Miss: compute the close.  A key that misses kMemoAdmit times since
    // its last fill is filled into a way, recording its outcome as it
    // is computed.  Until then a miss only counts on the slot, so closes
    // that keep changing cost a hash and a slot probe.
    if (++slot.misses < kMemoAdmit) {
        computeClose<false>(rows, event, temperature);
        return false;
    }
    if (memoEntries_.size() >= kMemoEntries ||
        memoRows_.size() >= kMemoRows ||
        memoVictims_.size() >= kMemoVictims ||
        memoDeposits_.size() >= kMemoDeposits) [[unlikely]] {
        forgetCloses();  // full: start over, from this entry
        slot = {h, memoGen_, 0, {kNoEntry, kNoEntry}, 0};
    }
    slot.misses = 0;
    slot.way[slot.victim] = static_cast<std::uint32_t>(memoEntries_.size());
    slot.victim = 1 - slot.victim;
    MemoEntry &e = memoEntries_.emplace_back();
    e.key = key;
    e.rowsAt = static_cast<std::uint32_t>(memoRows_.size());
    memoRows_.insert(memoRows_.end(), event.rows.begin(), event.rows.end());
    e.victimsAt = static_cast<std::uint32_t>(memoVictims_.size());
    e.depositsAt = static_cast<std::uint32_t>(memoDeposits_.size());
    computeClose<true>(rows, event, temperature);  // leaves `e` valid
    e.victims = static_cast<std::uint32_t>(memoVictims_.size()) - e.victimsAt;
    return false;
}

template <bool kFill>
void
DisturbanceModel::computeClose(std::vector<Row> &rows,
                               const CloseEvent &event, Celsius temperature)
{
    // Collect distance-1 / distance-2 victims of every closed aggressor.
    // The aggressor set is small (<= 32) so linear membership tests are
    // cheaper than hashing.
    auto is_aggressor = [&event](RowId r) {
        return std::find(event.rows.begin(), event.rows.end(), r) !=
               event.rows.end();
    };

    // The press, timing, off-time and class-temperature gains depend
    // only on the close event and the effective class, so they are
    // computed once per close (a CoMRA close needs the conventional
    // set too, for victims outside the partner's radius).  They are
    // still multiplied in per victim in the original order, keeping
    // every deposit bit-identical.
    struct ClassGains
    {
        double press, timing, off, temp;
    };
    const WeakCell neutralCell;
    auto class_gains = [&](TechClass cls) {
        ClassGains g;
        g.press = pressGain(cls, event.simraN, event.tOn);
        g.timing = cls == TechClass::Comra
                       ? comraDelayGain(event.comraDelay)
                   : cls == TechClass::Simra
                       ? simraTimingGain(event.simraActToPre,
                                         event.simraPreToAct)
                       : 1.0;
        g.off = cls == TechClass::Conventional
                    ? offGain(event.reopenGap)
                    : 1.0;
        // The CoMRA/SiMRA temperature gains are pow() of family
        // constants, identical for every cell; the conventional class
        // keeps its per-cell slope inline.
        g.temp = cls == TechClass::Conventional
                     ? 1.0
                     : tempGain(cls, event.simraN, temperature,
                                neutralCell);
        return g;
    };
    const ClassGains event_gains = class_gains(event.cls);
    // The conventional class keeps its per-cell temperature slope;
    // dt is tempGain()'s, hoisted out of the cell loop.
    const double dt = (temperature - 80.0) / 30.0;
    const ClassGains conv_gains =
        event.cls == TechClass::Comra
            ? class_gains(TechClass::Conventional)
            : event_gains;
    const int simra_idx = simraIndex(event.simraN);

    std::vector<Contribution> &contribs = contribScratch_;
    contribs.clear();
    contribs.reserve(event.rows.size() * 4);

    for (RowId a : event.rows) {
        const RowId sub = a / rowsPerSubarray_;
        for (int d : {-2, -1, 1, 2}) {
            const std::int64_t v =
                static_cast<std::int64_t>(a) + d;
            if (v < 0 || v >= static_cast<std::int64_t>(rows.size()))
                continue;
            const auto vr = static_cast<RowId>(v);
            if (vr / rowsPerSubarray_ != sub)
                continue;  // sense-amp isolation at subarray boundary
            if (is_aggressor(vr))
                continue;
            contribs.push_back({vr, a, d < 0 ? -d : d, d < 0 ? 1 : -1});
        }
    }

    // Group by victim.  Single-aggressor closes (the overwhelmingly
    // common case: every RowHammer/CoMRA half-cycle) emit victims in
    // strictly increasing order with no duplicates, so the sort would
    // be an exact no-op -- skip it.  Multi-row groups keep the sort:
    // with duplicate victim keys its (unstable) equal-key order fixes
    // the FP deposit order, which must not change under a perf tweak.
    if (event.rows.size() > 1) {
        std::sort(contribs.begin(), contribs.end(),
                  [](const Contribution &x, const Contribution &y) {
                      return x.victim < y.victim;
                  });
    }

    std::size_t i = 0;
    while (i < contribs.size()) {
        std::size_t j = i;
        while (j < contribs.size() &&
               contribs[j].victim == contribs[i].victim)
            ++j;

        const RowId victim_row = contribs[i].victim;
        Row &victim = rows[victim_row];

        bool has_left = false, has_right = false;
        for (std::size_t k = i; k < j; ++k) {
            if (contribs[k].side < 0)
                has_left = true;
            else
                has_right = true;
        }

        double side_strength;
        std::int8_t new_side;
        if (has_left && has_right) {
            side_strength = 1.0;
            new_side = 0;  // "both": next one-sided hit counts as a switch
        } else {
            const std::int8_t s = has_left ? -1 : 1;
            side_strength =
                (victim.lastSide != 0 && victim.lastSide != s)
                    ? 1.0
                    : cfg_.singleSidedScale;
            new_side = s;
        }

        const Region region = regionOf(victim_row);

        // The CoMRA amplification is local to the just-closed /
        // just-reopened wordline pair: it applies only to victims
        // within the blast radius of *both* operands (Obs. 5: a far
        // destination degenerates to far double-sided RowHammer).
        bool comra_local = false;
        if (event.cls == TechClass::Comra &&
            event.comraPartner != kNoRow) {
            const auto d =
                static_cast<std::int64_t>(victim_row) -
                static_cast<std::int64_t>(event.comraPartner);
            comra_local = d >= -2 && d <= 2;
        }
        const TechClass eff_cls =
            event.cls == TechClass::Comra && !comra_local
                ? TechClass::Conventional
                : event.cls;
        [[maybe_unused]] const std::size_t deposits_at =
            memoDeposits_.size();

        // Likewise, the full SiMRA amplification needs a sandwiched
        // victim; group-edge victims behave close to conventional
        // hammering (Obs. 16/17).
        const bool simra_sandwiched =
            eff_cls == TechClass::Simra && has_left && has_right;

        const ClassGains &g =
            eff_cls == event.cls ? event_gains : conv_gains;
        const double common = side_strength * g.press * g.timing *
                              g.off *
                              regionGain(eff_cls, event.simraN, region);
        const double simra_tech =
            simra_sandwiched ? 0.0 : kSimraEdgeGain[simra_idx];

        for (std::size_t k = i; k < j; ++k) {
            const Contribution &c = contribs[k];
            const RowData &aggr_data = rows[c.aggressor].data;

            for (WeakCell &cell : victim.cells) {
                const bool stored = victim.data.get(cell.col);
                if (stored != cell.fromBit(eff_cls))
                    continue;  // cannot flip in this class's direction

                double dist_w;
                if (c.distance == 1) {
                    // Per-cell split of the coupling between the upper
                    // and lower neighbour (mean-preserving).
                    dist_w = c.side > 0 ? 2.0 * cell.upperShare
                                        : 2.0 * (1.0 - cell.upperShare);
                } else {
                    dist_w = cfg_.distance2Weight;
                }

                double tech;
                switch (eff_cls) {
                  case TechClass::Comra:
                    tech = cell.comraFactor *
                           (event.comraDstRole ? cell.dstRoleGain
                                               : 1.0);
                    break;
                  case TechClass::Simra:
                    tech = simra_sandwiched
                               ? cell.simraFactor[simra_idx]
                               : simra_tech;
                    break;
                  default:
                    tech = 1.0;
                }

                const double cell_temp =
                    eff_cls == TechClass::Conventional
                        ? std::max(0.05, 1.0 + cell.tempSlopeConv * dt)
                        : g.temp;
                const double delta =
                    common * dist_w * tech *
                    minorityScale(eff_cls, cell) * cell_temp *
                    dataGain_[dataIndex(aggr_data, cell.col, stored)] /
                    (2.0 * cell.baseHc * cell.trialScale);
                const auto d = static_cast<float>(delta);
                deposit(cell, eff_cls, d);
                auto cross = [&] {
                    return crossesToConventional(cell, eff_cls)
                               ? crossAmount(eff_cls, d)
                               : 0.0f;
                };
                if constexpr (kFill)
                    memoDeposits_.push_back({&cell, d, cross()});
                if (tapped_) [[unlikely]]
                    tap(victim, cell, eff_cls, d, cross());
            }
        }

        if constexpr (kFill) {
            memoVictims_.push_back(
                {&victim,
                 static_cast<std::uint32_t>(memoDeposits_.size() -
                                            deposits_at),
                 victim.lastSide, new_side, eff_cls});
        }
        victim.lastSide = new_side;
        i = j;
    }
}

} // namespace pud::dram
