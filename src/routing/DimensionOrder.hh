/**
 * @file
 * Deterministic dimension-ordered (XY) routing.
 *
 * On a mesh this is the textbook XY route: finish the X dimension, then
 * Y; its channel dependency graph is acyclic, so it is deadlock-free by
 * Dally's theory without help. On any other topology it degenerates to
 * the lowest-numbered minimal port from the tables (deterministic but
 * not deadlock-free in general -- e.g. on a torus or ring).
 */

#ifndef SPINNOC_ROUTING_DIMENSIONORDER_HH
#define SPINNOC_ROUTING_DIMENSIONORDER_HH

#include "routing/RoutingAlgorithm.hh"

namespace spin
{

/** See file comment. */
class DimensionOrder : public RoutingAlgorithm
{
  public:
    std::string name() const override { return toString(RoutingKind::XyDor); }
    bool selfDeadlockFree() const override;
    void candidates(const Packet &pkt, const Router &r, RouterId target,
                    std::vector<PortId> &out) const override;
};

} // namespace spin

#endif // SPINNOC_ROUTING_DIMENSIONORDER_HH
