/**
 * @file
 * UGAL routing for dragonfly topologies (Kim et al. / Singh), the
 * paper's off-chip baseline and its SPIN-enabled variant.
 *
 * At the source the algorithm compares the congestion-weighted cost of
 * the minimal path against a random Valiant detour through another
 * group and misroutes at most once (livelock bound p = 1). The baseline
 * flavor enforces Dally's deadlock-avoidance VC ordering -- the VC
 * class equals the number of global links already traversed, so 3 VCs
 * are required. The SPIN flavor drops the restriction entirely: any
 * free VC is fair game, and deadlock freedom comes from recovery.
 */

#ifndef SPINNOC_ROUTING_UGAL_HH
#define SPINNOC_ROUTING_UGAL_HH

#include "routing/RoutingAlgorithm.hh"
#include "topology/Topology.hh"

namespace spin
{

/** See file comment. */
class Ugal : public RoutingAlgorithm
{
  public:
    /**
     * @param vc_ordered true = Dally-avoidance baseline (VC class =
     *        global hops, >= 3 VCs); false = unrestricted (for SPIN)
     */
    explicit Ugal(bool vc_ordered) : vcOrdered_(vc_ordered) {}

    std::string name() const override
    {
        return toString(vcOrdered_ ? RoutingKind::UgalDally
                                    : RoutingKind::UgalSpin);
    }
    bool fullyAdaptive() const override { return !vcOrdered_; }
    bool nonMinimal() const override { return true; }
    bool selfDeadlockFree() const override { return vcOrdered_; }
    int minVcsPerVnet() const override { return vcOrdered_ ? 3 : 1; }

    void attach(Network &net) override;
    void sourceRoute(Packet &pkt, RouterId src) override;
    void candidates(const Packet &pkt, const Router &r, RouterId target,
                    std::vector<PortId> &out) const override;
    void allowedVcs(const Packet &pkt, const Router &r, PortId outport,
                    std::vector<VcId> &out) const override;
    void injectionVcs(const Packet &pkt, const Router &r,
                      std::vector<VcId> &out) const override;
    void onHop(Packet &pkt, const Router &r, PortId outport) const
        override;
    void initialStates(RouterId src, RouterId dest, VnetId vnet,
                       std::vector<RouteState> &out) const override;

  private:
    bool vcOrdered_;

    /**
     * entry_[from_group * g + to_group]: the router a packet lands on
     * when it takes from_group's global channel into to_group, or
     * kInvalidId when that pair is unwired. The ordered flavor only
     * detours through these gateways (see sourceRoute).
     */
    std::vector<RouterId> entry_;
    /** Same indexing: the router owning that global channel... */
    std::vector<RouterId> exitRouter_;
    /** ...and its global out-port on that router. */
    std::vector<PortId> exitPort_;

    /** Congestion estimate: min downstream occupancy over @p ports. */
    int minOccupancy(const Router &r, PortSet ports) const;
};

} // namespace spin

#endif // SPINNOC_ROUTING_UGAL_HH
