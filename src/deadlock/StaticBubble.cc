#include "deadlock/StaticBubble.hh"

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin
{

StaticBubbleUnit::StaticBubbleUnit(Network &net, RouterId id)
    : net_(net), id_(id)
{
    const int radix = net.topo().radix(id);
    blockedSince_.assign(radix * net.config().totalVcs(), kNeverCycle);
}

int
StaticBubbleUnit::flatIdx(PortId inport, VcId vc) const
{
    return inport * net_.config().totalVcs() + vc;
}

void
StaticBubbleUnit::tick(Cycle now)
{
    Router &rt = net_.router(id_);
    const NetworkConfig &cfg = net_.config();
    const Cycle timeout = cfg.bubbleTimeout;

    for (PortId p = 0; p < rt.radix(); ++p) {
        InputUnit &iu = rt.input(p);
        for (VcId v = 0; v < iu.numVcs(); ++v) {
            VirtualChannel &ch = iu.vc(v);
            Cycle &since = blockedSince_[flatIdx(p, v)];

            const bool waiting = ch.active() && !ch.empty() &&
                ch.front().isHead() && ch.routeValid &&
                ch.grantedVc == kInvalidId && !ch.owner()->onEscape &&
                !rt.isNicPort(ch.request);
            if (!waiting) {
                since = kNeverCycle;
                continue;
            }
            if (since == kNeverCycle) {
                since = now;
                continue;
            }
            if (now - since < timeout)
                continue;

            // Timeout: unlock the reserved VC at the requested next hop
            // if it is free; otherwise keep waiting (the reserved
            // network drains, so it frees up eventually).
            const PortId o = ch.request;
            const VcId reserved = reservedVc(cfg, ch.owner()->vnet);
            if (rt.output(o).isIdle(reserved)) {
                rt.grantReserved(p, v, o, reserved);
                since = kNeverCycle;
            }
        }
    }
}

} // namespace spin
