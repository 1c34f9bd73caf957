/**
 * @file
 * West-first turn-model routing (Glass & Ni), the paper's mesh
 * deadlock-avoidance baseline: all hops toward the west are taken
 * first; afterwards the packet routes adaptively among the productive
 * {E, N, S} directions and never turns back west, which keeps the
 * channel dependency graph acyclic.
 */

#ifndef SPINNOC_ROUTING_WESTFIRST_HH
#define SPINNOC_ROUTING_WESTFIRST_HH

#include "routing/RoutingAlgorithm.hh"
#include "topology/Topology.hh"

namespace spin
{

/**
 * Deterministic west-first next hop (XY order: W, then E, then Y).
 * Shared by the Escape-VC and Static Bubble escape networks, whose
 * reserved channels drain along it.
 */
PortId westFirstNextPort(const MeshInfo &m, RouterId cur, RouterId dest);

/** See file comment. Partially adaptive, deadlock-free on meshes. */
class WestFirst : public RoutingAlgorithm
{
  public:
    std::string
    name() const override { return toString(RoutingKind::WestFirst); }
    bool selfDeadlockFree() const override { return true; }
    void attach(Network &net) override;
    void candidates(const Packet &pkt, const Router &r, RouterId target,
                    std::vector<PortId> &out) const override;
};

} // namespace spin

#endif // SPINNOC_ROUTING_WESTFIRST_HH
