#include "common/Random.hh"

#include "common/Hash.hh"

namespace spin
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Random::Random(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_) {
        s = splitmix64(sm);
        sm += kSplitmixGamma;
    }
}

std::uint64_t
Random::streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix64((seed + kSplitmixGamma) ^
                      (kSplitmixGamma * (stream + 1)));
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Random::below(std::uint64_t bound)
{
    SPIN_ASSERT(bound > 0, "below(0)");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Random::range(std::int64_t lo, std::int64_t hi)
{
    SPIN_ASSERT(lo <= hi, "range(", lo, ",", hi, ")");
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double
Random::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Random::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace spin
