#include "deadlock/OracleDetector.hh"

#include "common/Logging.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/RoutingAlgorithm.hh"
#include "routing/WestFirst.hh"

namespace spin
{

DeadlockReport
OracleDetector::detect() const
{
    const Topology &topo = net_.topo();
    const NetworkConfig &cfg = net_.config();
    const int nr = topo.numRouters();
    const int vcs = cfg.totalVcs();

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

    const RoutingAlgorithm &algo = net_.routing();
    const fault::FaultInjector *fi = net_.faults();
    const bool faulty = fi && fi->anyPermanent();
    std::vector<PortId> cands;
    std::vector<VcId> allowed;

    bool changed = true;
    while (changed) {
        changed = false;
        for (const Blocked &b : blocked) {
            char &flag = prog[idx(b.r, b.inport, b.vc)];
            if (flag)
                continue;
            const Router &rt = net_.router(b.r);
            const Packet &pkt = *rt.input(b.inport).vc(b.vc).owner();

            // Candidate output ports mirror Router::routeVc.
            if (cfg.scheme == DeadlockScheme::StaticBubble &&
                pkt.onEscape) {
                cands.clear();
                cands.push_back(westFirstNextPort(*topo.mesh, b.r,
                                                  pkt.destRouter));
            } else {
                RouterId target =
                    (pkt.intermediate != kInvalidId && !pkt.phaseTwo &&
                     pkt.intermediate != b.r)
                    ? pkt.intermediate
                    : pkt.destRouter;
                if (faulty && target != pkt.destRouter &&
                    fi->degradedDistance(b.r, target) < 0)
                    target = pkt.destRouter; // detour abandoned
                algo.candidates(pkt, rt, target, cands);
                if (faulty) {
                    // Mirror Router::filterFaultyPorts: keep only live
                    // ports that strictly reduce the degraded distance,
                    // else fall back to the degraded minimal tables. An
                    // unreachable target means the router purges the
                    // packet, which is progress, not deadlock.
                    const int dh = fi->degradedDistance(b.r, target);
                    if (dh < 0) {
                        flag = 1;
                        changed = true;
                        continue;
                    }
                    std::size_t w = 0;
                    for (const PortId c : cands) {
                        if (!fi->outPortAlive(b.r, c))
                            continue;
                        const LinkSpec *l = topo.outLink(b.r, c);
                        if (!l || fi->degradedDistance(l->dst, target) !=
                                      dh - 1)
                            continue;
                        cands[w++] = c;
                    }
                    if (w != 0) {
                        cands.resize(w);
                    } else {
                        const PortSet mp =
                            fi->degraded().minimalPorts(b.r, target);
                        cands.assign(mp.begin(), mp.end());
                    }
                }
            }

            bool can = false;
            for (const PortId o : cands) {
                const LinkSpec *l = topo.outLink(b.r, o);
                if (!l)
                    continue;
                if (cfg.scheme == DeadlockScheme::StaticBubble &&
                    pkt.onEscape) {
                    allowed.clear();
                    allowed.push_back(pkt.vnet * cfg.vcsPerVnet +
                                      cfg.vcsPerVnet - 1);
                } else {
                    algo.allowedVcs(pkt, rt, o, allowed);
                    applyVcReservation(net_, pkt, allowed);
                }
                for (const VcId dv : allowed) {
                    const VirtualChannel &down =
                        net_.router(l->dst).input(l->dstPort).vc(dv);
                    if (!down.active() ||
                        prog[idx(l->dst, l->dstPort, dv)]) {
                        can = true;
                        break;
                    }
                }
                if (can)
                    break;
            }
            if (can) {
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
