#include "routing/RoutingAlgorithm.hh"

#include <algorithm>

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/WestFirst.hh"

namespace spin
{

void
RoutingAlgorithm::attach(Network &net)
{
    net_ = &net;
}

void
RoutingAlgorithm::sourceRoute(Packet &, RouterId)
{
}

PortId
RoutingAlgorithm::select(const Packet &pkt, const Router &r,
                         const std::vector<PortId> &cands) const
{
    SPIN_ASSERT(!cands.empty(), "no route candidates at router ", r.id(),
                " for ", pkt.toString());
    if (cands.size() == 1)
        return cands[0];

    // FAvORS selection (paper Sec. V): a random candidate whose next hop
    // has a free allowed VC; otherwise the candidate whose next-hop VC
    // has been active for the fewest cycles.
    //
    // Scratch is thread-local: under the sharded step loop every worker
    // re-selects blocked heads of its own routers concurrently through
    // this one shared algorithm instance.
    const Cycle now = net_->now();
    static thread_local std::vector<VcId> scratchVcs;
    static thread_local std::vector<PortId> scratchFree;
    std::vector<VcId> &allowed = scratchVcs;
    std::vector<PortId> &free_cands = scratchFree;
    free_cands.clear();
    PortId best = cands[0];
    Cycle best_active = kNeverCycle;
    for (const PortId c : cands) {
        headVcs(pkt, r, c, allowed);
        const OutputUnit &out = r.output(c);
        Cycle t_active = kNeverCycle;
        for (const VcId v : allowed) {
            if (out.isIdle(v)) {
                t_active = 0;
                break;
            }
            t_active = std::min(t_active, now - out.activeSince(v));
        }
        if (t_active == 0)
            free_cands.push_back(c);
        if (t_active < best_active) {
            best_active = t_active;
            best = c;
        }
    }
    if (!free_cands.empty())
        return free_cands[r.rng().below(free_cands.size())];
    return best;
}

void
RoutingAlgorithm::allowedVcs(const Packet &pkt, const Router &,
                             PortId, std::vector<VcId> &out) const
{
    out.clear();
    const VcId base = vnetVcBase(pkt.vnet);
    for (int i = 0; i < vcsPerVnet(); ++i)
        out.push_back(base + i);
}

void
RoutingAlgorithm::injectionVcs(const Packet &pkt, const Router &r,
                               std::vector<VcId> &out) const
{
    allowedVcs(pkt, r, kInvalidId, out);
}

bool
RoutingAlgorithm::onRecoveryNetwork(const Packet &pkt) const
{
    return pkt.onEscape &&
           net_->config().scheme == DeadlockScheme::StaticBubble;
}

void
RoutingAlgorithm::headPorts(const Packet &pkt, const Router &r,
                            RouterId target, std::vector<PortId> &out) const
{
    if (!onRecoveryNetwork(pkt)) {
        candidates(pkt, r, target, out);
        return;
    }
    // Recovery packets drain on the reserved network via west-first.
    // Not fault-filtered: the escape ring's deadlock freedom rests on
    // the intact mesh, and spin_lint flags the degraded variant.
    SPIN_ASSERT(net_->topo().mesh.has_value(),
                "static bubble escape requires a mesh");
    out.assign(1, westFirstNextPort(*net_->topo().mesh, r.id(),
                                    pkt.destRouter));
}

void
RoutingAlgorithm::headVcs(const Packet &pkt, const Router &r,
                          PortId outport, std::vector<VcId> &out) const
{
    const VcId reserved = reservedVc(net_->config(), pkt.vnet);
    if (reserved != kInvalidId && pkt.onEscape) {
        out.assign(1, reserved); // recovery packets ride it alone
        return;
    }
    allowedVcs(pkt, r, outport, out);
    std::erase(out, reserved);
}

void
RoutingAlgorithm::headInjectionVcs(const Packet &pkt, const Router &r,
                                   std::vector<VcId> &out) const
{
    injectionVcs(pkt, r, out);
    std::erase(out, reservedVc(net_->config(), pkt.vnet));
}

bool
RoutingAlgorithm::admission(const Packet &, const Router &, PortId,
                            PortId) const
{
    return true;
}

void
RoutingAlgorithm::onHop(Packet &, const Router &, PortId) const
{
}

void
RoutingAlgorithm::onVcGranted(Packet &, const Router &, PortId, VcId) const
{
}

void
RoutingAlgorithm::initialStates(RouterId src, RouterId dest, VnetId vnet,
                                std::vector<RouteState> &out) const
{
    out.clear();
    RouteState s;
    s.router = src;
    s.target = dest;
    s.dest = dest;
    s.vnet = vnet;
    out.push_back(s);
    if (!nonMinimal())
        return;
    // Misrouting algorithms (UGAL, FAvORS-NMin) may detour through any
    // intermediate router; phase 1 routes minimally toward it.
    const int nr = net_->topo().numRouters();
    for (RouterId inter = 0; inter < nr; ++inter) {
        if (inter == src || inter == dest)
            continue;
        if (net_->topo().partial() &&
            (net_->topo().distance(src, inter) < 0 ||
             net_->topo().distance(inter, dest) < 0))
            continue; // detour severed on a degraded topology
        RouteState m = s;
        m.target = inter;
        m.misrouting = true;
        out.push_back(m);
    }
}

void
RoutingAlgorithm::enumerateHops(const RouteState &s,
                                std::vector<RouteHop> &out) const
{
    out.clear();
    SPIN_ASSERT(net_, "enumerateHops before attach");
    if (s.terminal())
        return;

    // Synthesize the packet record the routing functions would see.
    Packet pkt;
    pkt.destRouter = s.dest;
    pkt.vnet = s.vnet;
    pkt.globalHops = s.globalHops;
    pkt.onEscape = s.onEscape;
    pkt.intermediate = s.misrouting ? s.target : kInvalidId;
    pkt.phaseTwo = !s.misrouting;

    const Router &r = net_->router(s.router);
    std::vector<PortId> cands;
    headPorts(pkt, r, s.target, cands);
    std::vector<VcId> vcs;
    for (const PortId p : cands) {
        const LinkSpec *l = net_->topo().outLink(s.router, p);
        if (!l && net_->topo().partial())
            continue; // degraded topology: the link was cut by a fault
        SPIN_ASSERT(l, "candidate port ", p, " of router ", s.router,
                    " is unwired");
        headVcs(pkt, r, p, vcs);
        for (const VcId v : vcs) {
            // Advance the abstract state through the same hooks the
            // datapath fires, so scheme-specific transitions (escape
            // entry, global-hop classes) need no duplicate logic.
            Packet moved = pkt;
            onHop(moved, r, p);
            onVcGranted(moved, r, p, v);

            RouteHop h;
            h.outport = p;
            h.vc = v;
            RouteState &ns = h.next;
            ns.router = l->dst;
            ns.dest = s.dest;
            ns.vnet = s.vnet;
            // VC classes only ever compare against vcsPerVnet - 1, so
            // saturating keeps the state space finite without changing
            // any allowedVcs() answer.
            ns.globalHops = std::min(moved.globalHops, vcsPerVnet());
            ns.onEscape = moved.onEscape;
            if (l->dst == s.dest || (s.misrouting && l->dst == s.target)) {
                // Reached the destination (routers eject on arrival even
                // mid-misroute) or the intermediate: phase 2 begins.
                ns.target = s.dest;
                ns.misrouting = false;
            } else {
                ns.target = s.target;
                ns.misrouting = s.misrouting;
            }
            out.push_back(h);
        }
    }
}

void
RoutingAlgorithm::escapeVcs(VnetId, std::vector<VcId> &out) const
{
    out.clear();
}

bool
RoutingAlgorithm::sccProtectedByFlowControl(
    const std::vector<StaticChannel> &) const
{
    return false;
}

VcId
RoutingAlgorithm::vnetVcBase(VnetId vnet) const
{
    return vnet * net_->config().vcsPerVnet;
}

int
RoutingAlgorithm::vcsPerVnet() const
{
    return net_->config().vcsPerVnet;
}

VcId
reservedVc(const NetworkConfig &cfg, VnetId vnet)
{
    if (cfg.scheme != DeadlockScheme::StaticBubble)
        return kInvalidId;
    return vnet * cfg.vcsPerVnet + cfg.vcsPerVnet - 1;
}

} // namespace spin
