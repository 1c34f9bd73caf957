#include "obs/Forensics.hh"

#include <algorithm>
#include <fstream>

#include "core/SpecialMsg.hh"
#include "deadlock/OracleDetector.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin::obs
{

std::string
LoopSnapshot::toDot() const
{
    std::string out = "digraph deadlock {\n";
    out += "  label=\"" + origin + " snapshot @ cycle " +
           std::to_string(cycle);
    if (initiator != kInvalidId)
        out += ", initiator R" + std::to_string(initiator);
    out += ", vnet " + std::to_string(vnet) + "\";\n";
    out += "  node [shape=box];\n";
    for (const RouterId r : routers) {
        out += "  R" + std::to_string(r);
        if (r == initiator)
            out += " [style=filled, fillcolor=lightcoral]";
        out += ";\n";
    }
    for (const WaitForEdge &e : edges) {
        out += "  R" + std::to_string(e.router) + " -> R" +
               std::to_string(e.downRouter) + " [label=\"in" +
               std::to_string(e.inport) + "/vc" + std::to_string(e.vc) +
               " pkt" + std::to_string(e.packet) + " -> out" +
               std::to_string(e.outport) + "\"];\n";
    }
    out += "}\n";
    return out;
}

JsonValue
LoopSnapshot::toJson() const
{
    JsonValue obj = JsonValue::object();
    obj.set("cycle", JsonValue(cycle));
    obj.set("origin", JsonValue(origin));
    if (initiator != kInvalidId)
        obj.set("initiator", JsonValue(initiator));
    obj.set("vnet", JsonValue(vnet));
    if (loopLatency != 0)
        obj.set("loopLatency", JsonValue(loopLatency));
    JsonValue rs = JsonValue::array();
    for (const RouterId r : routers)
        rs.push(JsonValue(r));
    obj.set("routers", std::move(rs));
    JsonValue es = JsonValue::array();
    for (const WaitForEdge &e : edges) {
        JsonValue je = JsonValue::object();
        je.set("router", JsonValue(e.router));
        je.set("inport", JsonValue(e.inport));
        je.set("vc", JsonValue(e.vc));
        je.set("packet", JsonValue(e.packet));
        je.set("outport", JsonValue(e.outport));
        je.set("downRouter", JsonValue(e.downRouter));
        je.set("downInport", JsonValue(e.downInport));
        es.push(std::move(je));
    }
    obj.set("edges", std::move(es));
    if (!precedingFault.empty()) {
        JsonValue f = JsonValue::object();
        f.set("cycle", JsonValue(precedingFaultCycle));
        f.set("event", JsonValue(precedingFault));
        obj.set("precedingFault", std::move(f));
    }
    return obj;
}

bool
Forensics::admit()
{
    if (records_.size() >= maxRecords_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
Forensics::clear()
{
    records_.clear();
    dropped_ = 0;
}

void
Forensics::noteFault(Cycle cycle, std::string description)
{
    lastFaultCycle_ = cycle;
    lastFaultDesc_ = std::move(description);
}

void
Forensics::stampFault(LoopSnapshot &snap) const
{
    snap.precedingFault = lastFaultDesc_;
    snap.precedingFaultCycle = lastFaultCycle_;
}

void
Forensics::onProbeReturned(Network &net, RouterId initiator,
                           PortId pointer_inport, VcId pointer_vc,
                           const SpecialMsg &probe, Cycle now)
{
    if (!admit())
        return;

    LoopSnapshot snap;
    snap.cycle = now;
    snap.origin = "probe";
    stampFault(snap);
    snap.initiator = initiator;
    snap.vnet = probe.vnet;
    snap.loopLatency = now - probe.sendCycle;

    // Walk the recorded port path around the loop: path[i] is the
    // output port taken at the i-th router, starting at the initiator.
    const Topology &topo = net.topo();
    const int per = net.config().vcsPerVnet;
    RouterId r = initiator;
    PortId inport = pointer_inport;
    for (std::size_t i = 0; i < probe.path.size(); ++i) {
        const PortId outport = probe.path[i];

        WaitForEdge e;
        e.router = r;
        e.inport = inport;
        e.outport = outport;
        // The blocked packet behind this edge: the initiator's is the
        // pointed VC; at transit routers, the first VC of the probed
        // vnet at the arrival in-port that waits on the recorded
        // outport (the same scan the probe's fork performed).
        e.vc = i == 0 ? pointer_vc : kInvalidId;
        if (e.vc == kInvalidId) {
            const VcId lo = probe.vnet * per;
            for (VcId v = lo; v < lo + per; ++v) {
                if (net.router(r).depRequest(inport, v) == outport) {
                    e.vc = v;
                    break;
                }
            }
        }
        if (e.vc != kInvalidId) {
            const auto &owner = net.router(r).input(inport).vc(e.vc)
                                    .owner();
            if (owner)
                e.packet = owner->id;
        }

        const LinkSpec *l = topo.outLink(r, outport);
        if (!l)
            break; // defensive: a probe path only crosses wired ports
        e.downRouter = l->dst;
        e.downInport = l->dstPort;
        snap.routers.push_back(r);
        snap.edges.push_back(e);
        r = l->dst;
        inport = l->dstPort;
    }

    records_.push_back(std::move(snap));
}

void
Forensics::onOracleReport(Network &net, const DeadlockReport &report,
                          Cycle now)
{
    if (!report.deadlocked || !admit())
        return;

    LoopSnapshot snap;
    snap.cycle = now;
    snap.origin = "oracle";
    stampFault(snap);

    const Topology &topo = net.topo();
    for (const DeadlockMember &m : report.members) {
        WaitForEdge e;
        e.router = m.router;
        e.inport = m.inport;
        e.vc = m.vc;
        e.packet = m.packet;
        e.outport = net.router(m.router).depRequest(m.inport, m.vc);
        if (e.outport != kInvalidId) {
            if (const LinkSpec *l = topo.outLink(m.router, e.outport)) {
                e.downRouter = l->dst;
                e.downInport = l->dstPort;
            }
        }
        snap.edges.push_back(e);
        if (std::find(snap.routers.begin(), snap.routers.end(),
                      m.router) == snap.routers.end()) {
            snap.routers.push_back(m.router);
        }
        if (!snap.edges.empty() && snap.vnet == 0) {
            const auto &owner = net.router(m.router)
                                    .input(m.inport).vc(m.vc).owner();
            if (owner)
                snap.vnet = owner->vnet;
        }
    }
    std::sort(snap.routers.begin(), snap.routers.end());

    records_.push_back(std::move(snap));
}

JsonValue
Forensics::toJson() const
{
    JsonValue root = JsonValue::object();
    root.set("dropped", JsonValue(dropped_));
    if (!lastFaultDesc_.empty()) {
        JsonValue f = JsonValue::object();
        f.set("cycle", JsonValue(lastFaultCycle_));
        f.set("event", JsonValue(lastFaultDesc_));
        root.set("lastFault", std::move(f));
    }
    JsonValue arr = JsonValue::array();
    for (const LoopSnapshot &s : records_)
        arr.push(s.toJson());
    root.set("snapshots", std::move(arr));
    return root;
}

bool
Forensics::writeDot(const std::string &path, std::size_t index) const
{
    if (index >= records_.size())
        return false;
    std::ofstream os(path);
    if (!os)
        return false;
    os << records_[index].toDot();
    return static_cast<bool>(os);
}

} // namespace spin::obs
