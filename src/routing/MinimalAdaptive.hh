/**
 * @file
 * Table-driven minimal adaptive routing: every output port on some
 * minimal path is a candidate, and the base class's FAvORS-style
 * selection picks among them each cycle. Fully adaptive, topology
 * agnostic, and *not* deadlock-free by itself -- it relies on a
 * recovery scheme (SPIN / Static Bubble) or luck. This is both the
 * paper's "MinAdaptive + SPIN" configuration and the minimal half of
 * FAvORS.
 */

#ifndef SPINNOC_ROUTING_MINIMALADAPTIVE_HH
#define SPINNOC_ROUTING_MINIMALADAPTIVE_HH

#include "routing/RoutingAlgorithm.hh"

namespace spin
{

/** See file comment. */
class MinimalAdaptive : public RoutingAlgorithm
{
  public:
    std::string
    name() const override { return toString(RoutingKind::MinimalAdaptive); }
    bool fullyAdaptive() const override { return true; }
    void candidates(const Packet &pkt, const Router &r, RouterId target,
                    std::vector<PortId> &out) const override;
};

} // namespace spin

#endif // SPINNOC_ROUTING_MINIMALADAPTIVE_HH
