#include "routing/EscapeVc.hh"

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/WestFirst.hh"

namespace spin
{

void
EscapeVc::attach(Network &net)
{
    RoutingAlgorithm::attach(net);
    if (!net.topo().mesh || net.topo().mesh->wrap)
        SPIN_FATAL("escape-VC routing requires a (non-wrapping) mesh");
}

bool
EscapeVc::regularIdleAt(const Packet &pkt, const Router &r,
                        PortId port) const
{
    const OutputUnit &out = r.output(port);
    const VcId base = vnetVcBase(pkt.vnet);
    return out.hasIdleVcIn(base + 1, base + vcsPerVnet() - 1);
}

void
EscapeVc::candidates(const Packet &pkt, const Router &r, RouterId target,
                     std::vector<PortId> &out) const
{
    out.clear();
    const MeshInfo &m = *net_->topo().mesh;
    if (pkt.onEscape) {
        out.push_back(westFirstNextPort(m, r.id(), target));
        return;
    }
    const PortSet ports = net_->topo().minimalPorts(r.id(), target);
    out.assign(ports.begin(), ports.end());
}

PortId
EscapeVc::select(const Packet &pkt, const Router &r,
                 const std::vector<PortId> &cands) const
{
    if (pkt.onEscape || cands.size() == 1)
        return cands[0];

    // Prefer a random adaptive candidate with a free regular VC; when
    // everything regular is taken, head for the escape channel.
    // Thread-local scratch: workers of the sharded step loop re-select
    // concurrently through this one shared algorithm instance.
    static thread_local std::vector<PortId> scratchFree;
    std::vector<PortId> &free_cands = scratchFree;
    free_cands.clear();
    for (const PortId c : cands) {
        if (regularIdleAt(pkt, r, c))
            free_cands.push_back(c);
    }
    if (!free_cands.empty())
        return free_cands[r.rng().below(free_cands.size())];
    return westFirstNextPort(*net_->topo().mesh, r.id(), pkt.destRouter);
}

void
EscapeVc::allowedVcs(const Packet &pkt, const Router &r, PortId outport,
                     std::vector<VcId> &out) const
{
    out.clear();
    const VcId base = vnetVcBase(pkt.vnet);
    if (pkt.onEscape) {
        out.push_back(escapeVc(pkt.vnet));
        return;
    }
    // Regular VCs first so they are preferred; the escape VC is legal
    // only along the west-first route (acyclic escape CDG).
    for (int i = 1; i < vcsPerVnet(); ++i)
        out.push_back(base + i);
    if (outport != kInvalidId &&
        outport == westFirstNextPort(*net_->topo().mesh, r.id(),
                                     pkt.destRouter)) {
        out.push_back(escapeVc(pkt.vnet));
    }
}

void
EscapeVc::injectionVcs(const Packet &pkt, const Router &r,
                       std::vector<VcId> &out) const
{
    // Injection may use regular VCs only; the source queue always
    // drains because the regular VCs recycle via the escape network.
    out.clear();
    const VcId base = vnetVcBase(pkt.vnet);
    for (int i = 1; i < vcsPerVnet(); ++i)
        out.push_back(base + i);
    (void)r;
}

void
EscapeVc::onVcGranted(Packet &pkt, const Router &, PortId, VcId vc) const
{
    if (vc == escapeVc(pkt.vnet))
        pkt.onEscape = true;
}

void
EscapeVc::escapeVcs(VnetId vnet, std::vector<VcId> &out) const
{
    out.clear();
    out.push_back(escapeVc(vnet));
}

} // namespace spin
