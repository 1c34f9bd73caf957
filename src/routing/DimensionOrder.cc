#include "routing/DimensionOrder.hh"

#include "common/Logging.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin
{

bool
DimensionOrder::selfDeadlockFree() const
{
    const auto &mesh = net_->topo().mesh;
    return mesh.has_value() && !mesh->wrap;
}

void
DimensionOrder::candidates(const Packet &, const Router &r,
                           RouterId target,
                           std::vector<PortId> &out) const
{
    out.clear();
    const Topology &topo = net_->topo();
    if (topo.mesh && !topo.mesh->wrap) {
        const MeshInfo &m = *topo.mesh;
        const int dx = m.xOf(target) - m.xOf(r.id());
        const int dy = m.yOf(target) - m.yOf(r.id());
        if (dx > 0)
            out.push_back(MeshInfo::kEast);
        else if (dx < 0)
            out.push_back(MeshInfo::kWest);
        else if (dy > 0)
            out.push_back(MeshInfo::kNorth);
        else if (dy < 0)
            out.push_back(MeshInfo::kSouth);
        SPIN_ASSERT(!out.empty(), "XY route requested at destination");
        return;
    }
    // Table fallback: deterministic lowest minimal port.
    const PortSet ports = topo.minimalPorts(r.id(), target);
    SPIN_ASSERT(!ports.empty(), "no minimal port");
    out.push_back(ports.front());
}

} // namespace spin
