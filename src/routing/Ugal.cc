#include "routing/Ugal.hh"

#include <algorithm>
#include <limits>

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin
{

void
Ugal::attach(Network &net)
{
    RoutingAlgorithm::attach(net);
    const Topology &topo = net.topo();
    if (!topo.dragonfly)
        SPIN_FATAL("UGAL routing requires a dragonfly topology");
    const DragonflyInfo &df = *topo.dragonfly;
    entry_.assign(static_cast<std::size_t>(df.g) * df.g, kInvalidId);
    exitRouter_.assign(entry_.size(), kInvalidId);
    exitPort_.assign(entry_.size(), kInvalidId);
    for (const LinkSpec &l : topo.links()) {
        if (!l.global)
            continue;
        const std::size_t pair = df.groupOf(l.src) * df.g +
                                 df.groupOf(l.dst);
        entry_[pair] = l.dst;
        exitRouter_[pair] = l.src;
        exitPort_[pair] = l.srcPort;
    }
}

int
Ugal::minOccupancy(const Router &r, PortSet ports) const
{
    int best = std::numeric_limits<int>::max();
    for (const PortId p : ports)
        best = std::min(best, r.output(p).occupancy());
    return best == std::numeric_limits<int>::max() ? 0 : best;
}

void
Ugal::sourceRoute(Packet &pkt, RouterId src)
{
    const Topology &topo = net_->topo();
    const RouterId dst = pkt.destRouter;
    if (src == dst)
        return;

    const Router &r = net_->router(src);
    const int hmin = topo.distance(src, dst);
    const int qmin = minOccupancy(r, topo.minimalPorts(src, dst));

    // One random Valiant candidate. The ordered flavor must detour
    // through the gateway router its group's global channel enters the
    // detour group at: that keeps every path shaped l-g-l-g-l, where
    // the global-hop VC class strictly separates consecutive local
    // hops. An arbitrary-router detour puts two locals of the same VC
    // class back to back inside the intermediate group, and two such
    // packets circling opposite directions deadlock (the CDG cycle
    // spin_lint flags). The unordered flavor detours anywhere; SPIN
    // recovery owns its loops.
    // Draws come from the *source router's* stream: injection runs
    // sharded by attachment router, so the draw order at any one
    // router is fixed regardless of how other shards are scheduled.
    RouterId inter = kInvalidId;
    const DragonflyInfo &df = *topo.dragonfly;
    for (int tries = 0; tries < 8; ++tries) {
        if (vcOrdered_) {
            const int cand = static_cast<int>(r.rng().below(df.g));
            if (cand == df.groupOf(src) || cand == df.groupOf(dst))
                continue;
            const RouterId e = entry_[df.groupOf(src) * df.g + cand];
            if (e != kInvalidId && e != dst) {
                inter = e;
                break;
            }
        } else {
            const RouterId cand = static_cast<RouterId>(
                r.rng().below(topo.numRouters()));
            if (cand != src && cand != dst) {
                inter = cand;
                break;
            }
        }
    }
    if (inter == kInvalidId)
        return;

    const int hnm = topo.distance(src, inter) + topo.distance(inter, dst);
    const int qnm = minOccupancy(r, topo.minimalPorts(src, inter));
    if (qmin * hmin > qnm * hnm) {
        pkt.intermediate = inter;
        pkt.misroutes = 1;
    }
}

void
Ugal::candidates(const Packet &, const Router &r, RouterId target,
                 std::vector<PortId> &out) const
{
    const Topology &topo = net_->topo();
    if (!vcOrdered_) {
        const PortSet ports = topo.minimalPorts(r.id(), target);
        SPIN_ASSERT(!ports.empty(), "no minimal port");
        out.assign(ports.begin(), ports.end());
        return;
    }
    // The ordered flavor routes hierarchically: local hop to the
    // gateway, the gateway's global channel, local hop to the target.
    // minimalPorts() would do, except that equal-hop-count ties can
    // detour through a third group (g-l-g is as short as l-g-l), and a
    // path with three global hops circulates inside the saturated top
    // VC class -- the ordering no longer proves acyclicity.
    const DragonflyInfo &df = *topo.dragonfly;
    const int rg = df.groupOf(r.id());
    const int tg = df.groupOf(target);
    out.clear();
    if (rg == tg) {
        const PortSet ports = topo.minimalPorts(r.id(), target);
        SPIN_ASSERT(!ports.empty(), "no local port to group peer");
        out.push_back(ports.front());
        return;
    }
    const std::size_t pair = static_cast<std::size_t>(rg) * df.g + tg;
    const RouterId gw = exitRouter_[pair];
    SPIN_ASSERT(gw != kInvalidId, "no global channel from group ", rg,
                " to group ", tg);
    if (gw == r.id()) {
        out.push_back(exitPort_[pair]);
    } else {
        const PortSet ports = topo.minimalPorts(r.id(), gw);
        SPIN_ASSERT(!ports.empty(), "no local port to gateway");
        out.push_back(ports.front());
    }
}

void
Ugal::allowedVcs(const Packet &pkt, const Router &, PortId,
                 std::vector<VcId> &out) const
{
    out.clear();
    const VcId base = vnetVcBase(pkt.vnet);
    if (!vcOrdered_) {
        for (int i = 0; i < vcsPerVnet(); ++i)
            out.push_back(base + i);
        return;
    }
    // Dally ordering: the VC class equals the global hops taken so far,
    // which strictly increases around any potential cycle.
    const int cls = std::min(pkt.globalHops, vcsPerVnet() - 1);
    out.push_back(base + cls);
}

void
Ugal::injectionVcs(const Packet &pkt, const Router &r,
                   std::vector<VcId> &out) const
{
    if (!vcOrdered_) {
        RoutingAlgorithm::injectionVcs(pkt, r, out);
        return;
    }
    out.clear();
    out.push_back(vnetVcBase(pkt.vnet)); // class 0 at injection
}

void
Ugal::initialStates(RouterId src, RouterId dest, VnetId vnet,
                    std::vector<RouteState> &out) const
{
    if (!vcOrdered_) {
        RoutingAlgorithm::initialStates(src, dest, vnet, out);
        return;
    }
    // The ordered flavor's detour set is exactly the gateway entries
    // sourceRoute can sample (see there); enumerating wider would flag
    // cycles on paths the algorithm never produces.
    out.clear();
    RouteState s;
    s.router = src;
    s.target = dest;
    s.dest = dest;
    s.vnet = vnet;
    out.push_back(s);
    const DragonflyInfo &df = *net_->topo().dragonfly;
    const int sg = df.groupOf(src);
    for (int gi = 0; gi < df.g; ++gi) {
        if (gi == sg || gi == df.groupOf(dest))
            continue;
        const RouterId e = entry_[sg * df.g + gi];
        if (e == kInvalidId || e == dest)
            continue;
        RouteState m = s;
        m.target = e;
        m.misrouting = true;
        out.push_back(m);
    }
}

void
Ugal::onHop(Packet &pkt, const Router &r, PortId outport) const
{
    const LinkSpec *l = net_->topo().outLink(r.id(), outport);
    if (l && l->global)
        ++pkt.globalHops;
}

} // namespace spin
