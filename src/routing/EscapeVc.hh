/**
 * @file
 * Duato-style escape-VC routing for meshes (the paper's EscapeVC
 * baseline): VC 0 of each vnet is the escape channel routed west-first
 * (acyclic CDG); the remaining VCs route fully adaptive minimal. A
 * packet that cannot find a free regular VC falls into the escape
 * network and, conservatively, stays there until ejection -- Duato's
 * sufficient condition holds either way.
 */

#ifndef SPINNOC_ROUTING_ESCAPEVC_HH
#define SPINNOC_ROUTING_ESCAPEVC_HH

#include "routing/RoutingAlgorithm.hh"

namespace spin
{

/** See file comment. */
class EscapeVc : public RoutingAlgorithm
{
  public:
    std::string
    name() const override { return toString(RoutingKind::EscapeVc); }
    bool fullyAdaptive() const override { return true; }
    bool selfDeadlockFree() const override { return true; }
    int minVcsPerVnet() const override { return 2; }

    void attach(Network &net) override;
    void candidates(const Packet &pkt, const Router &r, RouterId target,
                    std::vector<PortId> &out) const override;
    PortId select(const Packet &pkt, const Router &r,
                  const std::vector<PortId> &cands) const override;
    void allowedVcs(const Packet &pkt, const Router &r, PortId outport,
                    std::vector<VcId> &out) const override;
    void injectionVcs(const Packet &pkt, const Router &r,
                      std::vector<VcId> &out) const override;
    void onVcGranted(Packet &pkt, const Router &r, PortId outport,
                     VcId vc) const override;
    void escapeVcs(VnetId vnet, std::vector<VcId> &out) const override;

  private:
    /** Escape VC index for @p vnet. */
    VcId escapeVc(VnetId vnet) const { return vnetVcBase(vnet); }
    /** True when any candidate's regular VCs have a free slot. */
    bool regularIdleAt(const Packet &pkt, const Router &r,
                       PortId port) const;
};

} // namespace spin

#endif // SPINNOC_ROUTING_ESCAPEVC_HH
