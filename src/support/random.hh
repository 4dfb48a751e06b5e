/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (cache-miss injection,
 * branch outcomes, workload jitter) draws from a seeded RandomSource so
 * that every experiment is bit-reproducible. The generator is
 * xoshiro256** seeded through SplitMix64, which is both fast and well
 * distributed; std::mt19937_64 is deliberately avoided because its
 * state size makes per-processor generators expensive.
 */

#ifndef FB_SUPPORT_RANDOM_HH
#define FB_SUPPORT_RANDOM_HH

#include <array>
#include <cstdint>

namespace fb
{

/** SplitMix64 step, used for seeding. */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * xoshiro256** generator with convenience distributions.
 */
class RandomSource
{
  public:
    /** Construct with a seed; identical seeds yield identical streams. */
    explicit RandomSource(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p = 0.5);

    /**
     * Geometric-ish jitter: returns a non-negative integer with mean
     * approximately @p mean (0 yields always 0). Used to model
     * execution drift.
     */
    std::uint64_t nextJitter(double mean);

    /**
     * nextJitter(@p mean) with the common zero outcome decided without
     * std::log: @p cut must be jitterCut(mean). Draws the same values
     * and returns the same results.
     */
    std::uint64_t nextJitter(double mean, double cut);

    /** The jitter a uniform draw @p u in [0, 1) maps to:
     * floor(-mean * log(1 - u)). @pre mean > 0. */
    static std::uint64_t jitterOf(double u, double mean);

    /** jitterOf(@p u, @p mean), returning 0 without std::log when
     * 1 - u > @p cut = jitterCut(mean). */
    static std::uint64_t jitterOf(double u, double mean, double cut);

    /**
     * A bound just above exp(-1 / mean): jitterOf(u, mean) is 0 when
     * 1 - u lies above exp(-1 / mean). The relative margin of 1e-9
     * dwarfs the rounding of log and exp, so 1 - u > cut proves a
     * zero result.
     */
    static double jitterCut(double mean);

    /** Create an independent child stream (for per-processor use). */
    RandomSource split();

    /** Raw generator state, for checkpointing. */
    std::array<std::uint64_t, 4> state() const
    {
        return {_s[0], _s[1], _s[2], _s[3]};
    }

    /** Restore raw generator state captured with state(). */
    void setState(const std::array<std::uint64_t, 4> &s)
    {
        _s[0] = s[0];
        _s[1] = s[1];
        _s[2] = s[2];
        _s[3] = s[3];
    }

  private:
    std::uint64_t _s[4];
};

} // namespace fb

#endif // FB_SUPPORT_RANDOM_HH
