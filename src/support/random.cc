#include "support/random.hh"

#include <cmath>

#include "support/logging.hh"

namespace fb
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

RandomSource::RandomSource(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : _s)
        s = splitMix64(sm);
}

std::uint64_t
RandomSource::next()
{
    const std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
    const std::uint64_t t = _s[1] << 17;

    _s[2] ^= _s[0];
    _s[3] ^= _s[1];
    _s[1] ^= _s[2];
    _s[0] ^= _s[3];
    _s[2] ^= t;
    _s[3] = rotl(_s[3], 45);

    return result;
}

std::uint64_t
RandomSource::nextBounded(std::uint64_t bound)
{
    FB_ASSERT(bound > 0, "nextBounded requires positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
RandomSource::nextRange(std::int64_t lo, std::int64_t hi)
{
    FB_ASSERT(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
RandomSource::nextDouble()
{
    // 53 high bits give a uniform double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

bool
RandomSource::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
RandomSource::nextJitter(double mean)
{
    if (mean <= 0.0)
        return 0;
    return jitterOf(nextDouble(), mean);
}

std::uint64_t
RandomSource::nextJitter(double mean, double cut)
{
    if (mean <= 0.0)
        return 0;
    return jitterOf(nextDouble(), mean, cut);
}

std::uint64_t
RandomSource::jitterOf(double u, double mean)
{
    // Sample an exponential with the given mean and round down; this
    // gives integer-valued drift with a long tail like real cache-miss
    // streaks.
    if (u >= 1.0)
        u = 0.9999999999;
    return static_cast<std::uint64_t>(-mean * std::log(1.0 - u));
}

std::uint64_t
RandomSource::jitterOf(double u, double mean, double cut)
{
    return 1.0 - u > cut ? 0 : jitterOf(u, mean);
}

double
RandomSource::jitterCut(double mean)
{
    return std::exp(-1.0 / mean) * (1.0 + 1e-9);
}

RandomSource
RandomSource::split()
{
    return RandomSource(next() ^ 0xa5a5a5a55a5a5a5aULL);
}

} // namespace fb
