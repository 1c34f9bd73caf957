#include "routing/MinimalAdaptive.hh"

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin
{

void
MinimalAdaptive::candidates(const Packet &, const Router &r,
                            RouterId target,
                            std::vector<PortId> &out) const
{
    const PortSet ports = net_->topo().minimalPorts(r.id(), target);
    SPIN_ASSERT(!ports.empty(), "no minimal port from ", r.id(), " to ",
                target);
    out.assign(ports.begin(), ports.end());
}

} // namespace spin
