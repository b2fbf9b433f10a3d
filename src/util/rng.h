/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * characterization runs.
 *
 * All randomness in the library flows through Rng so that a single
 * 64-bit seed reproduces an entire experiment, including the sampled
 * weak-cell population of every simulated DRAM module.  The generator
 * is xoshiro256** (Blackman & Vigna), which is fast, has a 256-bit
 * state, and passes BigCrush.
 */

#ifndef PUD_UTIL_RNG_H
#define PUD_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <numbers>

namespace pud {

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * be plugged into <random> facilities, although the built-in helpers
 * below avoid libstdc++ distribution-implementation differences and
 * keep results bit-stable across platforms.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 so that nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9E3779B97F4A7C15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            word = z ^ (z >> 31);
        }
    }

    /** Same state: the two generators draw the same stream. */
    bool operator==(const Rng &) const = default;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    std::uint64_t operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Rejection-free for our purposes: bias is < 2^-64 * bound and
        // irrelevant for sampling experiments, but we keep one widening
        // multiply for speed.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double
    gaussian()
    {
        double u1 = uniform();
        // Avoid log(0).
        if (u1 < 1e-300)
            u1 = 1e-300;
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * std::numbers::pi * u2);
    }

    /** Normal with the given mean and standard deviation. */
    double
    gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /**
     * Lognormal sample parameterized by the distribution median and the
     * sigma of the underlying normal.  Used for per-row read-disturbance
     * thresholds, whose empirical distributions are heavy-tailed.
     */
    double
    logNormalMedian(double median, double sigma)
    {
        return median * std::exp(sigma * gaussian());
    }

    /**
     * Fill `out[0..n)` with the next n raw outputs.  Draw-for-draw
     * identical to calling next() n times -- the batch form exists so
     * hot loops (weak-cell population, per-close damage folds) can
     * advance the state in one pass without the per-call function
     * boundary, never so it can reorder or skip draws.
     */
    void
    fill(std::uint64_t *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
    }

    /** Fork an independent stream keyed by an arbitrary tag. */
    Rng
    fork(std::uint64_t tag)
    {
        return Rng(next() ^ (tag * 0xD1342543DE82EF95ULL));
    }

    /** SplitMix64 finalizer: a strong 64-bit mixing function. */
    static std::uint64_t
    mix64(std::uint64_t x)
    {
        x += 0x9E3779B97F4A7C15ULL;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return x ^ (x >> 31);
    }

    /**
     * Counter-based stream: an Rng whose seed is a hash of (seed, a,
     * b).  Unlike fork(), this needs no generator state to derive from
     * -- stream (a, b) can be created directly, in any order, on any
     * thread -- which is what lets per-row weak-cell populations be
     * drawn lazily on first touch yet bit-identically to an eager
     * sweep (see Device::populateRow).
     */
    static Rng
    keyed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
    {
        std::uint64_t x = mix64(seed ^ (a * 0xD1342543DE82EF95ULL));
        x = mix64(x ^ (b * 0x2545F4914F6CDD1DULL));
        return Rng(x);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace pud

#endif // PUD_UTIL_RNG_H
