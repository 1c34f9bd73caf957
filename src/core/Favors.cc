#include "core/Favors.hh"

#include <algorithm>

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin
{

Cycle
FavorsNonMinimal::minActive(const Router &r, const Packet &pkt,
                            PortSet ports) const
{
    // Congestion estimate for the best port of the set, in cycles.
    //
    // The paper's signal is the next-hop VC active time "obtained from
    // the VC credit", relaxed by the buffer turn-around time. In this
    // substrate that raw signal resets whenever a VC changes occupant,
    // so a steadily draining bottleneck can look idle at decision time;
    // we therefore take the max of the relaxed active time and the
    // buffered-flit backlog behind the port (each buffered flit is at
    // least one cycle of drain), which measures the same pressure but
    // integrates over occupants. See DESIGN.md Sec. 1.3.
    const VcId base = vnetVcBase(pkt.vnet);
    const Cycle turnaround = net_->config().vcDepth + 2;
    Cycle best = kNeverCycle;
    for (const PortId p : ports) {
        const OutputUnit &out = r.output(p);
        Cycle t = out.minActiveTime(base, base + vcsPerVnet() - 1,
                                    net_->now());
        t = t > turnaround ? t - turnaround : 0;
        const Cycle backlog = static_cast<Cycle>(out.occupancy());
        best = std::min(best, std::max(t, backlog));
        if (best == 0)
            break;
    }
    return best;
}

void
FavorsNonMinimal::sourceRoute(Packet &pkt, RouterId src)
{
    const Topology &topo = net_->topo();
    const RouterId dst = pkt.destRouter;
    if (src == dst)
        return;

    const Router &r = net_->router(src);
    const Cycle t_min = minActive(r, pkt, topo.minimalPorts(src, dst));
    if (t_min == 0)
        return; // genuinely unloaded minimal path: route minimally

    // A single random intermediate candidate spreads detour traffic
    // uniformly and avoids routing hotspots (paper Sec. V).
    // The source router's private stream keeps the draw order fixed
    // under the sharded (multi-threaded) injection phase.
    RouterId inter = kInvalidId;
    for (int tries = 0; tries < 8; ++tries) {
        const RouterId cand =
            static_cast<RouterId>(r.rng().below(topo.numRouters()));
        if (cand != src && cand != dst) {
            inter = cand;
            break;
        }
    }
    if (inter == kInvalidId)
        return;

    const Cycle h_min = topo.distance(src, dst);
    const Cycle h_nmin = topo.distance(src, inter) +
                         topo.distance(inter, dst);
    const Cycle t_nmin = minActive(r, pkt, topo.minimalPorts(src, inter));
    if (h_min + t_min > h_nmin + t_nmin) {
        pkt.intermediate = inter;
        pkt.misroutes = 1;
    }
}

} // namespace spin
