/**
 * @file
 * ModuleTester: the characterization front-end for one DRAM module.
 *
 * Wraps a TestBench and exposes per-victim HC_first measurements for
 * every access pattern the paper studies.  All row arguments are
 * *physical* rows: the paper's methodology reverse engineers the
 * logical-to-physical mapping first (§3.2) and then reasons about
 * physical adjacency; the reveng module recovers the mapping blindly
 * and the tests verify it matches the device, so the tester uses the
 * device's translation as the recovered ground truth.
 */

#ifndef PUD_HAMMER_TESTER_H
#define PUD_HAMMER_TESTER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "bender/host.h"
#include "dram/simra_decoder.h"
#include "hammer/hcfirst.h"
#include "hammer/patterns.h"

namespace pud::hammer {

using dram::ColId;
using dram::DataPattern;
using dram::RowData;

/** Geometry of one planned SiMRA attack. */
struct SimraPlan
{
    RowId r1 = 0;                //!< first issued row (physical)
    RowId r2 = 0;                //!< second issued row (physical)
    std::vector<RowId> group;    //!< simultaneously activated rows
    RowId victim = 0;            //!< the measured victim (physical)
    int n = 0;                   //!< group size
    bool doubleSided = false;
};

/** Characterization front-end for one simulated module. */
class ModuleTester
{
  public:
    /** Per-measurement options. */
    struct Options
    {
        BankId bank = 0;

        /** Aggressor data pattern; victims get the negation (§4.2). */
        DataPattern pattern = DataPattern::P55;

        /** Search all four patterns and report the per-row WCDP. */
        bool searchWcdp = false;

        /**
         * Interleave nominal REF commands into the measured pattern at
         * the tREFI cadence (patterns.h withRefInterleave), modelling a
         * host that keeps refreshing while hammering.  TRR-enabled
         * devices then get sampling opportunities mid-pattern.
         */
        bool refreshInterleave = false;

        PatternTimings timings{};
        HcSearchConfig search{};
    };

    explicit ModuleTester(dram::DeviceConfig cfg) : bench_(std::move(cfg)) {}

    /**
     * Turn this tester into a fresh one for module seed `seed` (arena
     * reuse): the device is re-seeded (TestBench::reset) and the
     * executor forgets its last shape, prefix logs and stats, so what
     * a reset tester measures and counts never depends on what it ran
     * before.  Only the once-per-tester warning latches stay latched:
     * under arena reuse they fire once per arena, which changes stderr
     * only.
     */
    void
    reset(std::uint64_t seed)
    {
        bench_.reset(seed);
        bench_.executor().reset();
    }

    bender::TestBench &bench() { return bench_; }
    dram::Device &device() { return bench_.device(); }
    const dram::Device &device() const { return bench_.device(); }

    /**
     * Sample victim rows: the paper tests six subarrays per module
     * (two each from the beginning, middle, and end of the bank) and,
     * within each, all rows; `victims_per_subarray` caps that with an
     * even stride over interior rows.  `odd_only` restricts to rows
     * that can be sandwiched by a double-sided SiMRA group.
     */
    std::vector<RowId> sampleVictims(RowId victims_per_subarray,
                                     bool odd_only = false,
                                     int subarrays = 6) const;

    // ---- HC_first measurements (victim = physical row) -----------------

    /** Double-sided RowHammer / RowPress (t_AggOn via options). */
    std::uint64_t rhDouble(RowId victim, const Options &opt);

    /** Single-sided RowHammer on the victim's lower neighbour. */
    std::uint64_t rhSingle(RowId victim, const Options &opt);

    /**
     * Far double-sided RowHammer (Fig. 7): the single-sided CoMRA
     * access pattern with a nominal tRP, i.e. alternating the victim's
     * neighbour and a far row.
     */
    std::uint64_t farDouble(RowId victim, const Options &opt,
                            RowId spread = 100);

    /** Double-sided CoMRA: src/dst sandwich the victim (Fig. 3a). */
    std::uint64_t comraDouble(RowId victim, const Options &opt,
                              bool reversed = false);

    /** Single-sided CoMRA: dst far from src (Fig. 3b). */
    std::uint64_t comraSingle(RowId victim, const Options &opt,
                              RowId spread = 100, bool reversed = false);

    /** Double-sided SiMRA-N; victim must be an odd physical row. */
    std::uint64_t simraDouble(RowId victim, int n, const Options &opt);

    /** Single-sided SiMRA-N: victim borders a contiguous group. */
    std::uint64_t simraSingle(RowId victim, int n, const Options &opt);

    /** Geometry planners (exposed for tests and custom experiments). */
    std::optional<SimraPlan> planSimraDouble(RowId victim, int n) const;
    std::optional<SimraPlan> planSimraSingle(RowId victim, int n) const;

    // ---- combined patterns (§6) -----------------------------------------

    struct CombinedSpec
    {
        double comraFraction = 0.0;  //!< pre-hammer CoMRA to this
                                     //!< fraction of its HC_first
        double simraFraction = 0.0;
        int simraN = 4;
    };

    /**
     * Measure the RowHammer hammer count needed to flip the victim
     * after the CoMRA / SiMRA pre-hammering phases (Fig. 20).  The
     * phase HC_firsts are measured first, exactly as in §6.1.
     */
    std::uint64_t combinedRh(RowId victim, const CombinedSpec &spec,
                             const Options &opt);

    // ---- helpers ----------------------------------------------------------

    RowId rowsPerSubarray() const
    {
        return device().config().rowsPerSubarray;
    }

    /** Subarrays tested by default: 2 beginning + 2 middle + 2 end. */
    std::vector<dram::SubarrayId> testedSubarrays(int count = 6) const;

  private:
    /**
     * Run the full HC_first search where each trial initializes
     * `aggressors` with the aggressor pattern and the victim with its
     * negation, executes `base` with loop `loop`'s trip count set to
     * the probed n, and checks the victim.  Every probe shares the
     * base program's *shape*, so the executor lints it once and its
     * prefix logs serve the whole search (bender/executor.h).
     */
    std::uint64_t measure(const Options &opt, RowId victim,
                          const std::vector<RowId> &aggressors,
                          const Program &base, std::size_t loop);

    std::uint64_t
    measureWithPattern(const Options &opt, DataPattern pattern,
                       RowId victim, const std::vector<RowId> &aggressors,
                       const Program &base, std::size_t loop);

    /** A same-subarray far partner row for single-sided patterns. */
    RowId farRowInSubarray(RowId near, RowId spread) const;

    bender::TestBench bench_;
    bool warnedWindow_ = false;
    bool warnedLint_ = false;  //!< lint warnings reported once per tester
    bool checkedReach_ = false;  //!< static reachability checked once
};

} // namespace pud::hammer

#endif // PUD_HAMMER_TESTER_H
