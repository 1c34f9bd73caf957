/**
 * @file
 * The synthetic traffic patterns of the paper's evaluation (Dally &
 * Towles conventions): uniform random, bit complement, transpose,
 * tornado, bit reverse, bit rotation, shuffle and neighbor.
 *
 * Bit-permutation patterns are defined over the largest power-of-two
 * prefix of the node space; the few nodes outside it (none on the 64-
 * node mesh or the 1024-terminal dragonfly) fall back to uniform
 * random. Tornado and transpose use their mesh-coordinate forms on
 * meshes, matching the paper's description ("half-way across the
 * x-dimension").
 */

#ifndef SPINNOC_TRAFFIC_TRAFFICPATTERN_HH
#define SPINNOC_TRAFFIC_TRAFFICPATTERN_HH

#include <string>

#include "common/EnumNames.hh"
#include "common/Random.hh"
#include "common/Types.hh"
#include "topology/Topology.hh"

namespace spin
{

/** Pattern selector. */
enum class Pattern : std::uint8_t
{
    UniformRandom,
    BitComplement,
    Transpose,
    Tornado,
    BitReverse,
    BitRotation,
    Shuffle,
    Neighbor,
};

/** Pattern names in specs, cell ids and cell seeds. */
inline constexpr EnumName<Pattern> kPatternNames[] = {
    {Pattern::UniformRandom, "uniform-random"},
    {Pattern::BitComplement, "bit-complement"},
    {Pattern::Transpose, "transpose"},
    {Pattern::Tornado, "tornado"},
    {Pattern::BitReverse, "bit-reverse"},
    {Pattern::BitRotation, "bit-rotation"},
    {Pattern::Shuffle, "shuffle"},
    {Pattern::Neighbor, "neighbor"},
};
constexpr const auto &enumNames(Pattern) { return kPatternNames; }

/** fromString() that also accepts '_' for '-' ("uniform_random"). */
bool patternFromString(std::string text, Pattern &out);

/** Destination generator for one pattern over one topology. */
class TrafficPattern
{
  public:
    TrafficPattern(Pattern p, const Topology &topo);

    Pattern pattern() const { return pattern_; }

    /** Destination node for traffic sourced at @p src. */
    NodeId dest(NodeId src, Random &rng) const;

  private:
    Pattern pattern_;
    int numNodes_;
    int bits_;    //!< log2 of the power-of-two prefix
    int pow2_;    //!< 1 << bits_
    int meshX_ = 0;
    int meshY_ = 0;

    NodeId permuted(NodeId src) const;
};

} // namespace spin

#endif // SPINNOC_TRAFFIC_TRAFFICPATTERN_HH
