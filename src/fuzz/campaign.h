/**
 * @file
 * The fuzzing campaign driver: generate -> dedup -> execute -> export.
 *
 * Pipeline:
 *   1. Generation + dedup run serially over indices 0..candidates-1;
 *      the first candidate with a given shapeHash enters the corpus
 *      (order-stable, so the corpus is independent of --jobs).
 *   2. Unique candidates execute in fixed-size chunks fanned onto
 *      exec::parallelFor.  A chunk is the pool's work unit and owns
 *      one TestBench, and each candidate resets the bench to the
 *      campaign seed, so every pattern competes on identical silicon
 *      whatever the chunk size.  Results are
 *      slot-addressed by corpus index (the PR-2 determinism story).
 *   3. A candidate is first probed once at the full period budget;
 *      only if the victim flips does the bisection HC_first search
 *      run.  An optional static pre-filter (lint::predictEffects)
 *      skips candidates that cannot flip even in the best case.
 *   4. Effective patterns are compared by *total aggressor ACTs*
 *      (hc_periods x acts_per_period), the cost metric that makes a
 *      sparse pattern and a dense pattern commensurable and matches
 *      the hand-built combinedPattern baseline's accounting.
 *
 * Determinism contract: summarize() output and the JSONL corpus are
 * byte-identical across --jobs values for a fixed (module, seed,
 * candidates, budget) tuple.
 */

#ifndef PUD_FUZZ_CAMPAIGN_H
#define PUD_FUZZ_CAMPAIGN_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/fuzz.h"

namespace pud::fuzz {

/** Knobs of one campaign. */
struct CampaignConfig
{
    /** Calibration family (dram::makeConfig module id). */
    std::string moduleId = "HMA81GU7AFR8N-UH";

    /** Candidates to generate (pre-dedup). */
    std::uint64_t candidates = 10000;

    std::uint64_t seed = 1;
    int jobs = 1;

    /** Campaign device geometry (kept small: the fuzzer only needs
     *  one subarray of headroom around the victim). */
    dram::SubarrayId subarraysPerBank = 2;
    dram::RowId rowsPerSubarray = 64;

    /** HC_first budget, in base periods of each candidate. */
    std::uint64_t maxPeriods = 20000;

    /** Candidates per execution chunk: the pool's work unit, which
     *  owns one TestBench.  Fixed regardless of --jobs so chunk
     *  boundaries are deterministic; results do not depend on it. */
    std::size_t chunk = 256;

    /** Skip candidates the static effect predictor proves flipless. */
    bool staticFilter = true;

    /** Measure the hand-built combinedPattern baseline (Fig. 20). */
    bool baseline = true;

    /** Minimize the best `minimizeTop` effective patterns. */
    int minimizeTop = 1;
};

/** Per-candidate outcome. */
enum class Status : std::uint8_t {
    StaticSkip,  //!< predictor: cannot flip at the budget
    NoFlip,      //!< executed, no flip within maxPeriods
    Effective,   //!< flipped; hcPeriods/hcActs are valid
};

const char *statusName(Status s);

struct CandidateResult
{
    std::uint64_t index = 0;  //!< generation index of first sighting
    std::uint64_t hash = 0;
    Status status = Status::NoFlip;
    std::uint64_t actsPerPeriod = 0;
    std::uint64_t hcPeriods = ~std::uint64_t(0);  //!< kNoFlip sentinel
    std::uint64_t hcActs = ~std::uint64_t(0);
};

/** Replayer/minimizer output for one effective pattern. */
struct MinimizedPattern
{
    std::size_t corpusIdx = 0;
    Candidate original;
    Candidate minimized;
    std::uint64_t originalActs = 0;   //!< replayed hc_acts
    std::uint64_t minimizedActs = 0;  //!< after reduction
    std::size_t aggressorsBefore = 0;
    std::size_t aggressorsAfter = 0;
    std::uint64_t probes = 0;  //!< HC searches the minimizer spent

    /** Fig-21-style intensity sweep: stride scale -> hc_acts (kNoFlip
     *  sentinel when the thinned pattern stops flipping). */
    std::vector<std::pair<int, std::uint64_t>> intensitySweep;
};

struct CampaignResult
{
    CampaignConfig cfg;

    /** Unique candidates in generation order (the corpus). */
    std::vector<Candidate> corpus;

    /** Slot-addressed results, parallel to `corpus`. */
    std::vector<CandidateResult> results;

    std::uint64_t generated = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t staticSkips = 0;
    std::uint64_t executed = 0;
    std::uint64_t effective = 0;

    /** Hand-built combinedPattern cost in total aggressor ACTs
     *  (0 when disabled or when the baseline does not flip). */
    std::uint64_t baselineActs = 0;

    /** Corpus index of the cheapest effective pattern, or npos. */
    std::size_t bestIdx = static_cast<std::size_t>(-1);

    std::vector<MinimizedPattern> minimized;
};

/** Run a full campaign.  Fatal on nonsensical configuration. */
CampaignResult runCampaign(const CampaignConfig &cfg);

/** Write the JSONL corpus (header line + one line per entry). */
void writeCorpusJsonl(const CampaignResult &r, std::ostream &os);

/** Deterministic human-readable summary (stdout of the CLI). */
std::string summarize(const CampaignResult &r);

/** The campaign's victim row for a geometry (physical, subarray 0). */
RowId campaignVictim(dram::RowId rowsPerSubarray);

/** The device config a campaign uses for `cfg`. */
dram::DeviceConfig campaignDeviceConfig(const CampaignConfig &cfg);

} // namespace pud::fuzz

#endif // PUD_FUZZ_CAMPAIGN_H
