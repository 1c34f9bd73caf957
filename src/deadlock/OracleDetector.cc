#include "deadlock/OracleDetector.hh"

#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin
{

DeadlockReport
OracleDetector::detect() const
{
    const Topology &topo = net_.topo();
    const int nr = topo.numRouters();
    const int vcs = net_.config().totalVcs();

    // Flat index over (router, inport, vc).
    std::vector<int> base(nr + 1, 0);
    for (int r = 0; r < nr; ++r)
        base[r + 1] = base[r] + topo.radix(r) * vcs;
    auto idx = [&](RouterId r, PortId p, VcId v) {
        return base[r] + p * vcs + v;
    };

    std::vector<char> prog(base[nr], 1);

    struct Blocked
    {
        RouterId r;
        PortId inport;
        VcId vc;
    };
    std::vector<Blocked> blocked;

    for (RouterId r = 0; r < nr; ++r) {
        const Router &rt = net_.router(r);
        for (PortId p = 0; p < rt.radix(); ++p) {
            const InputUnit &iu = rt.input(p);
            for (VcId v = 0; v < vcs; ++v) {
                const VirtualChannel &ch = iu.vc(v);
                if (!ch.active() || ch.empty() || !ch.front().isHead())
                    continue; // idle or draining: progresses
                if (ch.frozen)
                    continue; // committed to a rotation: progresses
                if (ch.grantedVc != kInvalidId)
                    continue; // downstream VC reserved: progresses
                if (!ch.routeValid)
                    continue; // transient
                if (rt.isNicPort(ch.request))
                    continue; // NICs eject without stalls
                prog[idx(r, p, v)] = 0;
                blocked.push_back(Blocked{r, p, v});
            }
        }
    }

    // A blocked head can progress when one of the ports the router
    // would let it request leads to a downstream VC it may take that
    // is idle or itself progresses. The options come from the router's
    // own query, so the oracle judges exactly the rules route compute
    // follows; it never calls select(), which would draw randomness.
    const RoutingAlgorithm &algo = net_.routing();
    std::vector<PortId> ports;
    std::vector<VcId> allowed;
    const auto canProgress = [&](const Blocked &b) {
        const Router &rt = net_.router(b.r);
        const Packet &pkt = *rt.input(b.inport).vc(b.vc).owner();
        if (rt.routeOptions(pkt, ports).status ==
            Router::RouteStatus::Unreachable)
            return true; // the router purges the packet: progress
        for (const PortId o : ports) {
            const LinkSpec *l = topo.outLink(b.r, o);
            if (!l)
                continue;
            algo.headVcs(pkt, rt, o, allowed);
            for (const VcId dv : allowed) {
                if (!net_.router(l->dst).input(l->dstPort).vc(dv).active() ||
                    prog[idx(l->dst, l->dstPort, dv)])
                    return true;
            }
        }
        return false;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (const Blocked &b : blocked) {
            char &flag = prog[idx(b.r, b.inport, b.vc)];
            if (!flag && canProgress(b)) {
                flag = 1;
                changed = true;
            }
        }
    }

    DeadlockReport report;
    for (const Blocked &b : blocked) {
        if (!prog[idx(b.r, b.inport, b.vc)]) {
            const auto &ch = net_.router(b.r).input(b.inport).vc(b.vc);
            report.members.push_back(DeadlockMember{
                b.r, b.inport, b.vc, ch.owner()->id});
        }
    }
    report.deadlocked = !report.members.empty();
    return report;
}

} // namespace spin
