#include "traffic/TrafficPattern.hh"

#include <algorithm>
#include <bit>

#include "common/Logging.hh"

namespace spin
{

bool
patternFromString(std::string text, Pattern &out)
{
    std::replace(text.begin(), text.end(), '_', '-');
    return fromString(text, out);
}

TrafficPattern::TrafficPattern(Pattern p, const Topology &topo)
    : pattern_(p), numNodes_(topo.numNodes())
{
    SPIN_ASSERT(numNodes_ >= 2, "pattern over <2 nodes");
    bits_ = std::bit_width(static_cast<unsigned>(numNodes_)) - 1;
    pow2_ = 1 << bits_;
    if (topo.mesh && topo.numNodes() == topo.mesh->sizeX * topo.mesh->sizeY) {
        meshX_ = topo.mesh->sizeX;
        meshY_ = topo.mesh->sizeY;
    }
}

NodeId
TrafficPattern::permuted(NodeId src) const
{
    const unsigned s = static_cast<unsigned>(src);
    const unsigned mask = static_cast<unsigned>(pow2_ - 1);
    switch (pattern_) {
      case Pattern::BitComplement:
        return static_cast<NodeId>(~s & mask);
      case Pattern::Transpose: {
        if (meshX_ > 0 && meshX_ == meshY_) {
            const int x = src % meshX_;
            const int y = src / meshX_;
            return static_cast<NodeId>(x * meshX_ + y);
        }
        // Bit transpose: swap the low and high halves of the address.
        const int half = bits_ / 2;
        const unsigned lo = s & ((1u << half) - 1);
        const unsigned hi = (s >> half) & ((1u << half) - 1);
        const unsigned rest = s & ~((1u << (2 * half)) - 1);
        return static_cast<NodeId>(rest | (lo << half) | hi);
      }
      case Pattern::Tornado: {
        if (meshX_ > 0) {
            const int x = src % meshX_;
            const int y = src / meshX_;
            const int tx = (x + (meshX_ + 1) / 2 - 1) % meshX_;
            return static_cast<NodeId>(y * meshX_ + tx);
        }
        return static_cast<NodeId>(
            (src + numNodes_ / 2) % numNodes_);
      }
      case Pattern::BitReverse: {
        unsigned r = 0;
        for (int i = 0; i < bits_; ++i) {
            if (s & (1u << i))
                r |= 1u << (bits_ - 1 - i);
        }
        return static_cast<NodeId>(r);
      }
      case Pattern::BitRotation:
        return static_cast<NodeId>(((s >> 1) | ((s & 1u) << (bits_ - 1)))
                                   & mask);
      case Pattern::Shuffle:
        return static_cast<NodeId>(((s << 1) | (s >> (bits_ - 1))) & mask);
      case Pattern::Neighbor:
        return static_cast<NodeId>((src + 1) % numNodes_);
      default:
        SPIN_PANIC("permuted() on a random pattern");
    }
}

NodeId
TrafficPattern::dest(NodeId src, Random &rng) const
{
    SPIN_ASSERT(src >= 0 && src < numNodes_, "bad source node ", src);
    switch (pattern_) {
      case Pattern::UniformRandom:
        return static_cast<NodeId>(rng.below(numNodes_));
      case Pattern::Tornado:
      case Pattern::Neighbor:
      case Pattern::Transpose:
        if (pattern_ == Pattern::Transpose && !(meshX_ > 0 &&
                                                meshX_ == meshY_) &&
            src >= pow2_) {
            return static_cast<NodeId>(rng.below(numNodes_));
        }
        return permuted(src);
      default:
        // Bit patterns: defined on the power-of-two prefix.
        if (src >= pow2_)
            return static_cast<NodeId>(rng.below(numNodes_));
        return permuted(src);
    }
}

} // namespace spin
