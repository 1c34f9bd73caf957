#include "topology/Topology.hh"

#include <algorithm>
#include <cstring>

#include "common/Logging.hh"

namespace spin
{

void
Topology::setRouters(int n, int ports)
{
    SPIN_ASSERT(n > 0 && ports > 0, "bad router spec");
    radix_.assign(n, ports);
}

void
Topology::setRouters(const std::vector<int> &ports_per_router)
{
    SPIN_ASSERT(!ports_per_router.empty(), "no routers");
    radix_ = ports_per_router;
}

void
Topology::addLink(const LinkSpec &l)
{
    SPIN_ASSERT(!finalized_, "topology already finalized");
    SPIN_ASSERT(l.src >= 0 && l.src < numRouters(), "bad src router");
    SPIN_ASSERT(l.dst >= 0 && l.dst < numRouters(), "bad dst router");
    SPIN_ASSERT(l.srcPort >= 0 && l.srcPort < radix_[l.src], "bad src port");
    SPIN_ASSERT(l.dstPort >= 0 && l.dstPort < radix_[l.dst], "bad dst port");
    SPIN_ASSERT(l.latency >= 1, "link latency must be >= 1");
    links_.push_back(l);
}

void
Topology::addBiLink(RouterId a, PortId pa, RouterId b, PortId pb,
                    Cycle latency, bool global)
{
    addLink(LinkSpec{a, pa, b, pb, latency, global});
    addLink(LinkSpec{b, pb, a, pa, latency, global});
}

void
Topology::attachNic(NodeId node, RouterId router, PortId port)
{
    SPIN_ASSERT(!finalized_, "topology already finalized");
    SPIN_ASSERT(node == static_cast<NodeId>(nics_.size()),
                "NICs must be attached in node-id order");
    nics_.push_back(NicAttach{node, router, port});
}

void
Topology::finalize()
{
    finalizeImpl(true);
}

void
Topology::finalizePartial()
{
    finalizeImpl(false);
    partial_ = true;
}

void
Topology::finalizeImpl(bool strict)
{
    SPIN_ASSERT(!finalized_, "finalize() called twice");
    const int n = numRouters();

    portBase_.assign(n + 1, 0);
    int max_radix = 0;
    for (int r = 0; r < n; ++r) {
        if (radix_[r] > 64) {
            SPIN_FATAL("router ", r, " has ", radix_[r],
                       " ports; port masks support at most 64");
        }
        portBase_[r + 1] = portBase_[r] + radix_[r];
        max_radix = std::max(max_radix, radix_[r]);
    }
    outLinkIdx_.assign(portBase_[n], -1);
    inLinkIdx_.assign(portBase_[n], -1);
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const LinkSpec &l = links_[i];
        std::int32_t &out = outLinkIdx_[portBase_[l.src] + l.srcPort];
        std::int32_t &in = inLinkIdx_[portBase_[l.dst] + l.dstPort];
        if (out != -1) {
            SPIN_FATAL("router ", l.src, " out-port ", l.srcPort,
                       " wired twice");
        }
        if (in != -1) {
            SPIN_FATAL("router ", l.dst, " in-port ", l.dstPort,
                       " wired twice");
        }
        out = static_cast<std::int32_t>(i);
        in = static_cast<std::int32_t>(i);
    }

    nodesAt_.assign(n, {});
    for (const NicAttach &a : nics_) {
        if (a.router < 0 || a.router >= n)
            SPIN_FATAL("NIC ", a.node, " attached to bad router ", a.router);
        if (a.port < 0 || a.port >= radix_[a.router])
            SPIN_FATAL("NIC ", a.node, " attached to bad port ", a.port);
        const std::int32_t slot = portBase_[a.router] + a.port;
        if (outLinkIdx_[slot] != -1 || inLinkIdx_[slot] != -1) {
            SPIN_FATAL("NIC ", a.node, " port collides with a link at "
                       "router ", a.router, " port ", a.port);
        }
        nodesAt_[a.router].push_back(a.node);
    }

    // BFS from every source router over the router graph (hop metric).
    const std::size_t nn = static_cast<std::size_t>(n) * n;
    dist_.assign(nn, -1);
    std::vector<int> queue(n);
    for (int s = 0; s < n; ++s) {
        std::int16_t *dist = &dist_[pairIndex(s, 0)];
        dist[s] = 0;
        queue[0] = s;
        for (int head = 0, tail = 1; head < tail; ++head) {
            const int u = queue[head];
            for (std::int32_t i = portBase_[u]; i < portBase_[u + 1]; ++i) {
                if (outLinkIdx_[i] < 0)
                    continue;
                const RouterId v = links_[outLinkIdx_[i]].dst;
                if (dist[v] < 0) {
                    dist[v] = static_cast<std::int16_t>(dist[u] + 1);
                    queue[tail++] = v;
                }
            }
        }
        for (int t = 0; t < n; ++t) {
            if (strict && dist[t] < 0) {
                SPIN_FATAL("router graph not strongly connected: no path ",
                           s, " -> ", t);
            }
        }
    }

    // Port p of s is minimal toward t iff dist(neighbor(p), t) ==
    // dist(s, t) - 1. Unreachable pairs (-1) never match: no distance
    // is -2. Each source's row is built as full 64-bit masks, then
    // packed to maskBytes_ bytes per pair.
    maskBytes_ = std::max(1, (max_radix + 7) / 8);
    keepMask_ = maskBytes_ == 8 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << 8 * maskBytes_) - 1;
    minMask_.assign(nn * maskBytes_ + 7, 0);
    std::vector<std::uint64_t> mask(n);
    for (int s = 0; s < n; ++s) {
        const std::int16_t *ds = &dist_[pairIndex(s, 0)];
        std::fill(mask.begin(), mask.end(), 0);
        for (PortId p = 0; p < radix_[s]; ++p) {
            const std::int32_t li = outLinkIdx_[portBase_[s] + p];
            if (li < 0)
                continue;
            const std::int16_t *dn = &dist_[pairIndex(links_[li].dst, 0)];
            const std::uint64_t bit = std::uint64_t{1} << p;
            for (int t = 0; t < n; ++t)
                mask[t] |= dn[t] == ds[t] - 1 ? bit : 0;
        }
        // t == s matched every neighbor that cannot reach s (-1 == 0 - 1).
        mask[s] = 0;
        std::uint8_t *packed = &minMask_[pairIndex(s, 0) * maskBytes_];
        for (int t = 0; t < n; ++t) {
            for (int b = 0; b < maskBytes_; ++b)
                *packed++ = static_cast<std::uint8_t>(mask[t] >> (8 * b));
        }
    }

    finalized_ = true;
}

void
Topology::checkFinalized() const
{
    SPIN_ASSERT(finalized_, "topology not finalized");
}

const LinkSpec *
Topology::outLink(RouterId r, PortId port) const
{
    checkFinalized();
    const std::int32_t i = outLinkIdx_[portBase_[r] + port];
    return i < 0 ? nullptr : &links_[i];
}

bool
Topology::isNicPort(RouterId r, PortId port) const
{
    checkFinalized();
    for (const NodeId n : nodesAt_[r]) {
        if (nics_[n].port == port)
            return true;
    }
    return false;
}

const std::vector<NodeId> &
Topology::nodesAt(RouterId r) const
{
    checkFinalized();
    return nodesAt_[r];
}

int
Topology::distance(RouterId from, RouterId to) const
{
    checkFinalized();
    return dist_[pairIndex(from, to)];
}

PortSet
Topology::minimalPorts(RouterId from, RouterId to) const
{
    checkFinalized();
    // One unaligned 8-byte load (the table ends in 7 bytes of padding),
    // cut to the table's width.
    static_assert(std::endian::native == std::endian::little,
                  "route masks are read as little-endian words");
    std::uint64_t word;
    std::memcpy(&word, &minMask_[pairIndex(from, to) * maskBytes_],
                sizeof word);
    return PortSet(word & keepMask_);
}

} // namespace spin
