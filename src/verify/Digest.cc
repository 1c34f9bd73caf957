#include "verify/Digest.hh"

#include <algorithm>
#include <numeric>

#include "common/Hash.hh"
#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin::verify
{

namespace
{

/** Most detection candidates (ripe VCs) a router may have for the
 *  probeAttempt residue below to stay exact; canonicalDigest() rejects
 *  a SPIN network that could exceed it. */
constexpr int kMaxRipe = 8;

constexpr std::uint64_t
lcmUpTo(int n)
{
    std::uint64_t l = 1;
    for (int i = 2; i <= n; ++i)
        l = std::lcm(l, static_cast<std::uint64_t>(i));
    return l;
}

/** 2 * lcm(1..kMaxRipe) = 1680: the detection-pick alternation in
 *  tickDetect() reads probeAttempt only through %2 and
 *  (/2) % ripe.size() with ripe.size() <= kMaxRipe, so this residue
 *  carries all of its behavioral content while staying bounded. */
constexpr std::uint64_t kAttemptPeriod = 2 * lcmUpTo(kMaxRipe);
static_assert(kAttemptPeriod == 1680);

/** Folds each field as one 64-bit word: h = splitmix64(h ^ word). */
class WordHash
{
  public:
    void u64(std::uint64_t v) { h_ = splitmix64(h_ ^ v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u64(v ? 1 : 0); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0;
};

std::int64_t
rel(Cycle abs, Cycle now)
{
    if (abs == kNeverCycle)
        return std::numeric_limits<std::int64_t>::max();
    return static_cast<std::int64_t>(now) - static_cast<std::int64_t>(abs);
}

int
mapped(const std::vector<int> &perm, RouterId r)
{
    if (r == kInvalidId || r < 0 ||
        r >= static_cast<RouterId>(perm.size())) {
        return -1;
    }
    return perm[r];
}

void
hashPacket(WordHash &h, const Packet &p, const std::vector<int> &perm)
{
    // Identity-free normalization: two packets with the same source,
    // destination, class, size and routing phase are interchangeable.
    h.i64(mapped(perm, p.src));
    h.i64(mapped(perm, p.dest));
    h.u64(static_cast<std::uint64_t>(p.vnet));
    h.u64(static_cast<std::uint64_t>(p.sizeFlits));
    h.u64(static_cast<std::uint64_t>(p.hops));
    h.i64(mapped(perm, p.intermediate));
    h.b(p.phaseTwo);
    h.u64(static_cast<std::uint64_t>(p.misroutes));
    h.u64(static_cast<std::uint64_t>(p.globalHops));
    h.b(p.onEscape);
}

void
hashSm(WordHash &h, const SpecialMsg &sm, Cycle now,
       const std::vector<int> &perm)
{
    h.u64(static_cast<std::uint64_t>(sm.type));
    h.i64(mapped(perm, sm.sender));
    h.u64(static_cast<std::uint64_t>(sm.vnet));
    h.i64(rel(sm.sendCycle, now));
    h.u64(sm.path.size());
    for (const PortId p : sm.path)
        h.i64(p);
    h.u64(sm.pathIdx);
    h.i64(rel(sm.spinCycle, now));
}

/**
 * Digest @p net under the router renaming @p perm (perm[r] = canonical
 * index of router r). Renamings other than the identity require one
 * NIC per router with node ids equal to router ids (true for every
 * shipped scenario topology).
 */
std::uint64_t
digestNetwork(Network &net, const std::vector<int> &perm)
{
    const int n = net.numRouters();
    SPIN_ASSERT(static_cast<int>(perm.size()) == n, "bad perm size");
    std::vector<int> inv(n, -1);
    for (int r = 0; r < n; ++r)
        inv[perm[r]] = r;

    const Cycle now = net.now();
    const int vcs = net.config().totalVcs();
    SpinManager *mgr = net.spinManager();
    const fault::FaultInjector *fi = net.faults();
    WordHash h;

    // Routers, in canonical order.
    for (int c = 0; c < n; ++c) {
        const RouterId r = inv[c];
        Router &rt = net.router(r);
        h.b(rt.dead());
        if (mgr)
            h.i64(mgr->priorityOf(r, now));
        for (PortId p = 0; p < rt.radix(); ++p) {
            const InputUnit &iu = rt.input(p);
            h.i64(iu.rrPointer);
            for (VcId v = 0; v < vcs; ++v) {
                const VirtualChannel &vc = iu.vc(v);
                h.b(vc.active());
                h.b(vc.frozen);
                h.i64(vc.frozenOutport);
                h.b(vc.routeValid);
                h.i64(vc.request);
                h.i64(vc.grantedVc);
                h.i64(vc.size());
                if (vc.active()) {
                    h.i64(rel(vc.lastProgress(), now));
                    h.i64(rel(vc.activeSince(), now));
                }
                if (!vc.empty()) {
                    const Flit &f = vc.front();
                    h.i64(f.seq);
                    // A flit may not leave the cycle it arrives; older
                    // arrivals are all equivalent.
                    h.b(f.arrivedAt == now);
                    if (f.pkt)
                        hashPacket(h, *f.pkt, perm);
                } else if (vc.owner()) {
                    hashPacket(h, *vc.owner(), perm);
                }
            }
            const OutputUnit &ou = rt.output(p);
            h.i64(rt.switchRrPointer(p));
            if (!ou.toNic()) {
                for (VcId v = 0; v < vcs; ++v) {
                    h.b(ou.isIdle(v));
                    h.i64(ou.credits(v));
                    h.i64(rel(ou.activeSince(v), now));
                }
            }
        }
        if (const SpinUnit *su = rt.spinUnit()) {
            const FsmSnapshot s = su->snapshot(now);
            h.u64(static_cast<std::uint64_t>(s.state));
            h.i64(s.deadlineIn);
            h.i64(s.ptrInport);
            h.i64(s.ptrVc);
            h.b(s.victimActive);
            h.i64(mapped(perm, s.victimSource));
            h.i64(s.spinIn);
            h.b(s.loopValid);
            h.u64(s.loopPath.size());
            for (const PortId p : s.loopPath)
                h.i64(p);
            h.u64(static_cast<std::uint64_t>(s.loopLatency));
            h.u64(static_cast<std::uint64_t>(s.loopVnet));
            h.u64(s.probeAttempt % kAttemptPeriod);
            h.u64(s.frozen.size());
            for (const auto &f : s.frozen) {
                h.i64(f.inport);
                h.i64(f.vc);
                h.i64(f.outport);
            }
        }
    }

    // Links, ordered by (canonical source, source port).
    std::vector<int> order(static_cast<std::size_t>(net.numLinks()));
    for (int li = 0; li < net.numLinks(); ++li)
        order[li] = li;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const LinkSpec &sa = net.link(a).spec();
        const LinkSpec &sb = net.link(b).spec();
        if (perm[sa.src] != perm[sb.src])
            return perm[sa.src] < perm[sb.src];
        return sa.srcPort < sb.srcPort;
    });
    for (const int li : order) {
        const Link &l = net.link(li);
        h.b(l.failed());
        h.i64(rel(l.flitBusyUntil(), now));
        h.b(l.smBusyAt() == now);
        l.forEachFlit([&](Cycle arrival, const LinkFlit &lf) {
            h.i64(rel(arrival, now));
            h.i64(lf.vc);
            h.i64(lf.flit.seq);
            if (lf.flit.pkt)
                hashPacket(h, *lf.flit.pkt, perm);
        });
        l.forEachCredit([&](Cycle arrival, const CreditMsg &cm) {
            h.i64(rel(arrival, now));
            h.i64(cm.vc);
            h.b(cm.isFree);
        });
    }

    // NICs, in canonical node order (node id == router id on the
    // scenario topologies; asserted for non-identity renamings).
    for (int c = 0; c < net.numNodes(); ++c) {
        const NodeId nid =
            net.numNodes() == n ? inv[c] : static_cast<NodeId>(c);
        Nic &nic = net.nic(nid);
        h.u64(nic.queueLength());
        h.u64(nic.streamRemaining());
        h.i64(nic.streamVc());
        nic.forEachQueued(
            [&](const Packet &p) { hashPacket(h, p, perm); });
        nic.forEachInjFlit([&](Cycle arrival, const LinkFlit &lf) {
            h.i64(rel(arrival, now));
            h.i64(lf.vc);
            h.i64(lf.flit.seq);
            if (lf.flit.pkt)
                hashPacket(h, *lf.flit.pkt, perm);
        });
        nic.forEachEjectFlit([&](Cycle arrival, const Flit &f) {
            h.i64(rel(arrival, now));
            h.i64(f.seq);
        });
        nic.forEachCredit([&](Cycle arrival, const CreditMsg &cm) {
            h.i64(rel(arrival, now));
            h.i64(cm.vc);
            h.b(cm.isFree);
        });
        const OutputUnit &tr = nic.tracker();
        for (VcId v = 0; v < tr.numVcs(); ++v) {
            h.b(tr.isIdle(v));
            h.i64(tr.credits(v));
        }
    }

    // SM substrate (already relative-time from snapshotSms).
    if (mgr) {
        SmSubstrate sub = mgr->snapshotSms(now);
        std::sort(sub.inFlight.begin(), sub.inFlight.end(),
                  [&](const SmSubstrate::InFlight &a,
                      const SmSubstrate::InFlight &b) {
                      const LinkSpec &sa = net.link(a.link).spec();
                      const LinkSpec &sb = net.link(b.link).spec();
                      if (perm[sa.src] != perm[sb.src])
                          return perm[sa.src] < perm[sb.src];
                      if (sa.srcPort != sb.srcPort)
                          return sa.srcPort < sb.srcPort;
                      return a.arriveIn < b.arriveIn;
                  });
        h.u64(sub.inFlight.size());
        for (const auto &f : sub.inFlight) {
            const LinkSpec &spec = net.link(f.link).spec();
            h.i64(perm[spec.src]);
            h.i64(spec.srcPort);
            h.i64(f.arriveIn);
            hashSm(h, f.sm, now, perm);
        }
        std::sort(sub.pending.begin(), sub.pending.end(),
                  [&](const SmSubstrate::Pending &a,
                      const SmSubstrate::Pending &b) {
                      if (a.dueIn != b.dueIn)
                          return a.dueIn < b.dueIn;
                      if (perm[a.send.from] != perm[b.send.from])
                          return perm[a.send.from] < perm[b.send.from];
                      if (a.send.outport != b.send.outport)
                          return a.send.outport < b.send.outport;
                      return a.send.sm.type < b.send.sm.type;
                  });
        h.u64(sub.pending.size());
        for (const auto &p : sub.pending) {
            h.i64(p.dueIn);
            h.i64(perm[p.send.from]);
            h.i64(p.send.outport);
            hashSm(h, p.send.sm, now, perm);
        }
    }

    // Fault state beyond the per-component flags hashed above.
    if (fi) {
        for (int c = 0; c < n; ++c)
            h.b(fi->routerDead(inv[c]));
    }
    h.u64(net.packetsInFlight());
    return h.value();
}

/** Reject a SPIN network on which kAttemptPeriod would merge states
 *  that pick different detection candidates. */
void
checkAttemptResidue(Network &net)
{
    if (!net.spinManager())
        return;
    const int vcs = net.config().totalVcs();
    for (RouterId r = 0; r < net.numRouters(); ++r) {
        const Router &rt = net.router(r);
        int ports = 0;
        for (PortId p = 0; p < rt.radix(); ++p) {
            if (!rt.input(p).fromNic())
                ++ports;
        }
        if (ports * vcs > kMaxRipe) {
            SPIN_FATAL("verify: router ", r, " has ", ports * vcs,
                       " detection candidates (", ports,
                       " in-network ports x ", vcs,
                       " VCs); the state digest keeps probeAttempt "
                       "modulo ",
                       kAttemptPeriod, ", exact for at most ", kMaxRipe);
        }
    }
}

} // namespace

std::uint64_t
canonicalDigest(Network &net, bool ring_symmetry)
{
    checkAttemptResidue(net);
    const int n = net.numRouters();
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    if (!ring_symmetry)
        return digestNetwork(net, perm);
    SPIN_ASSERT(net.numNodes() == n,
                "ring symmetry requires one NIC per router");
    std::uint64_t best = ~0ull;
    for (int k = 0; k < n; ++k) {
        for (int r = 0; r < n; ++r)
            perm[r] = (r + k) % n;
        best = std::min(best, digestNetwork(net, perm));
    }
    return best;
}

} // namespace spin::verify
