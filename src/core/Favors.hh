/**
 * @file
 * FAvORS: Fully Adaptive One-VC Routing with Spin (paper Sec. V).
 *
 * The first truly one-VC fully adaptive deadlock-free routing
 * algorithm: no turn restrictions, no VC orderings, no escape buffers
 * -- SPIN supplies deadlock freedom. Two variants:
 *
 *  - FavorsMinimal routes on minimal paths only, choosing each hop by
 *    the paper's selection rule (random among ports with a free
 *    next-hop VC, else the least-active next-hop VC).
 *  - FavorsNonMinimal additionally decides once at the source whether
 *    to detour through a random intermediate router, using the cost
 *    comparison  Hmin + t_active_min  vs  Hnonmin + t_active_nonmin.
 *    The single misroute keeps it livelock-free (p = 1).
 */

#ifndef SPINNOC_CORE_FAVORS_HH
#define SPINNOC_CORE_FAVORS_HH

#include "routing/MinimalAdaptive.hh"
#include "topology/Topology.hh"

namespace spin
{

/** Minimal FAvORS (paper "FAvORS Min"). */
class FavorsMinimal : public MinimalAdaptive
{
  public:
    std::string
    name() const override { return toString(RoutingKind::FavorsMin); }
};

/** Non-minimal FAvORS (paper "FAvORS NMin"). */
class FavorsNonMinimal : public MinimalAdaptive
{
  public:
    std::string
    name() const override { return toString(RoutingKind::FavorsNMin); }
    bool nonMinimal() const override { return true; }

    void sourceRoute(Packet &pkt, RouterId src) override;

  private:
    /**
     * min over @p ports of the next-hop VC active time (paper: obtained
     * from the VC credit; 0 when an idle VC exists).
     */
    Cycle minActive(const Router &r, const Packet &pkt,
                    PortSet ports) const;
};

} // namespace spin

#endif // SPINNOC_CORE_FAVORS_HH
