/**
 * @file
 * The two non-cryptographic hashes behind every deterministic
 * derivation: splitmix64 (cell seeds, fault picks, flaky-link streams,
 * RNG seeding, and the model checker's per-cycle state digests, which
 * fold one word per field) and 64-bit FNV-1a (resume fingerprints, the
 * text half of cell seeds, and the model checker's decision keys). Cell
 * seeds and fingerprints are persisted (bench/BENCH_sweep.json, resume
 * caches), so neither hash may change; tools/MODEL_baseline.json pins
 * the checker's counts, not its digest values.
 */

#ifndef SPINNOC_COMMON_HASH_HH
#define SPINNOC_COMMON_HASH_HH

#include <cstdint>
#include <string>

namespace spin
{

/** splitmix64's state increment (the 64-bit golden ratio). */
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ull;

/** The splitmix64 output for state @p x: its finalizer over
 *  x + kSplitmixGamma. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += kSplitmixGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Streaming 64-bit FNV-1a. */
class Fnv1a
{
  public:
    /** Hash the bytes of @p s. */
    Fnv1a &
    bytes(const std::string &s)
    {
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
        return *this;
    }
    /** Hash @p v as eight little-endian bytes. */
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u64(v ? 1 : 0); }
    std::uint64_t value() const { return h_; }

  private:
    void
    byte(unsigned char c)
    {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace spin

#endif // SPINNOC_COMMON_HASH_HH
