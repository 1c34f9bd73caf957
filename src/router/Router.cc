#include "router/Router.hh"

#include <bit>

#include "common/Logging.hh"
#include "core/SpinUnit.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "obs/Tracer.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin
{

Router::Router(Network &net, RouterId id)
    : net_(net), id_(id),
      rng_(Random::streamSeed(net.config().seed,
                              static_cast<std::uint64_t>(id))),
      load_(&net.routerLoadSlot(id))
{
    const Topology &topo = net.topo();
    const NetworkConfig &cfg = net.config();
    vnetLoad_.assign(static_cast<std::size_t>(cfg.vnets), 0);
    vcsPerVnet_ = cfg.vcsPerVnet;
    const int radix = topo.radix(id);

    nicPort_.assign(radix, false);
    for (const NodeId n : topo.nodesAt(id))
        nicPort_[topo.portOfNode(n)] = true;

    inputs_.reserve(radix);
    outputs_.reserve(radix);
    for (PortId p = 0; p < radix; ++p) {
        inputs_.emplace_back(p, nicPort_[p], cfg.totalVcs());
        outputs_.emplace_back(p, nicPort_[p], cfg.totalVcs(), cfg.vcDepth);
    }
    outRr_.assign(radix, 0);
    SPIN_ASSERT(cfg.totalVcs() <= 64,
                "occupancy bitmask supports at most 64 VCs per port");
    SPIN_ASSERT(radix <= 64,
                "switch-allocation bitmasks support at most 64 ports");
    occupied_.assign(radix, 0);
    outLink_.reserve(radix);
    inLink_.reserve(radix);
    for (PortId p = 0; p < radix; ++p) {
        outLink_.push_back(net.outLinkOf(id, p));
        inLink_.push_back(net.inLinkOf(id, p));
    }
}

Router::~Router() = default;

void
Router::setSpinUnit(std::unique_ptr<SpinUnit> u)
{
    spin_ = std::move(u);
}

void
Router::receiveFlit(PortId inport, VcId vcid, Flit f)
{
    if (dead_) {
        // Committed packets drain into the failure and vanish; the
        // tail flit retires the packet (it is always at-or-upstream of
        // every other fragment, so this fires exactly once).
        ++net_.stats().flitsLostToFaults;
        if (f.isTail()) {
            ++net_.stats().packetsLostToFaults;
            net_.notifyLost(f.pkt);
        }
        return;
    }
    const Cycle now = net_.now();
    f.arrivedAt = now;
    inputs_[inport].vc(vcid).pushFlit(std::move(f), now);
    ++*load_;
    ++vnetLoad_[vcVnet(vcid)];
    occupied_[inport] |= std::uint64_t{1} << vcid;
    if (spin_ && !inputs_[inport].fromNic())
        spin_->onFlitArrival(inport, vcid);
}

void
Router::receiveCredit(PortId outport, VcId vcid, bool is_free)
{
    if (dead_)
        return;
    outputs_[outport].onCredit(vcid, is_free, net_.now());
}

void
Router::markDead(Cycle now)
{
    if (dead_)
        return;
    dead_ = true;
    for (PortId p = 0; p < radix(); ++p) {
        InputUnit &iu = inputs_[p];
        for (VcId v = 0; v < iu.numVcs(); ++v) {
            VirtualChannel &vc = iu.vc(v);
            while (!vc.empty()) {
                const Flit f = vc.popFlit();
                --*load_;
                --vnetLoad_[vcVnet(v)];
                ++net_.stats().flitsLostToFaults;
                if (f.isTail()) {
                    ++net_.stats().packetsLostToFaults;
                    net_.notifyLost(f.pkt);
                }
            }
        }
        occupied_[p] = 0;
    }
    if (spin_)
        spin_->abortForFault(now);
}

void
Router::computeRoutes()
{
    for (PortId inport = 0; inport < radix(); ++inport) {
        InputUnit &iu = inputs_[inport];
        // Walk occupied VCs in ascending order, like the full scan did.
        for (std::uint64_t m = occupied_[inport]; m != 0; m &= m - 1) {
            const VcId v = std::countr_zero(m);
            VirtualChannel &vc = iu.vc(v);
            if (!vc.active() || vc.frozen)
                continue;
            if (!vc.front().isHead())
                continue;
            if (vc.grantedVc != kInvalidId)
                continue; // committed; waiting only on switch/credits
            if (!routeVc(inport, v)) {
                purgeUnroutable(inport, v);
                continue;
            }
            tryVcAllocation(inport, v);
        }
    }
}

Router::RouteOptions
Router::routeOptions(const Packet &pkt, std::vector<PortId> &out) const
{
    if (pkt.destRouter == id_) {
        out.assign(1, net_.topo().portOfNode(pkt.dest));
        return {RouteStatus::Fixed, id_};
    }
    const RoutingAlgorithm &algo = net_.routing();
    if (algo.onRecoveryNetwork(pkt)) {
        algo.headPorts(pkt, *this, pkt.destRouter, out);
        return {RouteStatus::Fixed, pkt.destRouter};
    }
    const bool faulty = faults_ && faults_->anyPermanent();
    RouterId target = pkt.destRouter;
    if (pkt.intermediate != kInvalidId && !pkt.phaseTwo &&
        pkt.intermediate != id_ &&
        !(faulty && faults_->degradedDistance(id_, pkt.intermediate) < 0))
        target = pkt.intermediate; // detour not yet reached nor cut off
    algo.headPorts(pkt, *this, target, out);
    SPIN_ASSERT(!out.empty(), "routing produced no candidates at router ",
                id_, " for ", pkt.toString());
    if (!faulty)
        return {RouteStatus::Candidates, target};

    const int dh = faults_->degradedDistance(id_, target);
    if (dh < 0) {
        out.clear();
        return {RouteStatus::Unreachable, target};
    }
    // Keep only candidates whose link is alive AND strictly reduces
    // the degraded distance. The strict-decrease rule forfeits
    // non-minimal adaptivity under faults but guarantees progress
    // (no livelock between intact-table and degraded-table hops).
    const Topology &topo = net_.topo();
    std::erase_if(out, [&](PortId c) {
        const LinkSpec *l = topo.outLink(id_, c);
        return !faults_->outPortAlive(id_, c) || !l ||
               faults_->degradedDistance(l->dst, target) != dh - 1;
    });
    if (!out.empty())
        return {RouteStatus::Candidates, target};

    // The algorithm's candidates all died or detour: fall back to the
    // degraded minimal tables (alive by construction, non-empty since
    // dh >= 1).
    const PortSet mp = faults_->degraded().minimalPorts(id_, target);
    SPIN_ASSERT(!mp.empty(), "degraded tables empty despite dh=", dh,
                " at router ", id_);
    out.assign(mp.begin(), mp.end());
    return {RouteStatus::Degraded, target};
}

bool
Router::routeVc(PortId inport, VcId vcid)
{
    VirtualChannel &vc = inputs_[inport].vc(vcid);
    Packet &pkt = *vc.owner();
    const RouteOptions o = routeOptions(pkt, scratchPorts_);
    if (o.status == RouteStatus::Fixed) {
        vc.request = scratchPorts_[0];
        vc.routeValid = true;
        return true;
    }
    if (pkt.intermediate != kInvalidId && o.target != pkt.intermediate)
        pkt.phaseTwo = true; // the detour was reached or abandoned
    if (o.status == RouteStatus::Unreachable)
        return false;
    if (o.status == RouteStatus::Degraded && !vc.routeValid) {
        ++net_.stats().packetsRerouted;
        if (obs::Tracer *t = net_.trace()) {
            obs::TraceEvent e;
            e.cycle = net_.now();
            e.category = obs::kCatFault;
            e.name = "reroute";
            e.router = id_;
            e.packet = pkt.id;
            e.arg0 = o.target;
            t->record(e);
        }
    }
    PortId request = net_.routing().select(pkt, *this, scratchPorts_);

    // Request hysteresis: adaptive selection runs every cycle, but a
    // blocked head only re-targets a *different* port when that port
    // actually has a free allowed VC. This keeps the buffer
    // dependencies SPIN traces stable inside a deadlock (where no port
    // has free VCs and re-selection would be a coin flip) without
    // giving up any real adaptivity.
    if (vc.routeValid && request != vc.request &&
        !hasIdleAllowedVc(pkt, request)) {
        bool still_candidate = false;
        for (const PortId c : scratchPorts_)
            still_candidate |= c == vc.request;
        if (still_candidate)
            request = vc.request;
    }
    vc.request = request;
    vc.routeValid = true;
    return true;
}

void
Router::purgeUnroutable(PortId inport, VcId vcid)
{
    VirtualChannel &vc = inputs_[inport].vc(vcid);
    if (!vc.packetComplete())
        return; // VCT: wait until the whole packet streamed in
    const PacketPtr pkt = vc.owner();
    const Cycle now = net_.now();

    while (!vc.empty()) {
        vc.popFlit();
        --*load_;
        --vnetLoad_[vcVnet(vcid)];
        creditUpstream(inport, vcid, vc.empty());
    }
    occupied_[inport] &= ~(std::uint64_t{1} << vcid);

    if (spin_ && !inputs_[inport].fromNic())
        spin_->onFlitDeparture(inport, vcid);

    ++net_.stats().packetsUnroutable;
    net_.notifyLost(pkt);

    if (obs::Tracer *t = net_.trace()) {
        obs::TraceEvent e;
        e.cycle = now;
        e.category = obs::kCatFault;
        e.name = "packet_unroutable";
        e.router = id_;
        e.packet = pkt->id;
        e.port = inport;
        e.vc = vcid;
        t->record(e);
    }
}

bool
Router::hasIdleAllowedVc(const Packet &pkt, PortId outport) const
{
    const OutputUnit &out = outputs_[outport];
    if (out.toNic())
        return true;
    net_.routing().headVcs(pkt, *this, outport, scratchVcs_);
    for (const VcId v : scratchVcs_) {
        if (out.isIdle(v))
            return true;
    }
    return false;
}

void
Router::tryVcAllocation(PortId inport, VcId vcid)
{
    VirtualChannel &vc = inputs_[inport].vc(vcid);
    if (!vc.routeValid || vc.grantedVc != kInvalidId)
        return;
    Packet &pkt = *vc.owner();
    OutputUnit &out = outputs_[vc.request];

    if (out.toNic()) {
        // Ejection: the NIC sinks flits without stalls; no VC needed.
        vc.grantedVc = 0;
        return;
    }

    RoutingAlgorithm &algo = net_.routing();
    if (!out.toNic() && !algo.admission(pkt, *this, inport, vc.request))
        return; // flow-control gate (e.g. bubble condition)
    algo.headVcs(pkt, *this, vc.request, scratchVcs_);

    const VcId granted = out.allocate(scratchVcs_, pkt.id, net_.now());
    if (granted != kInvalidId) {
        vc.grantedVc = granted;
        algo.onVcGranted(pkt, *this, vc.request, granted);
        if (obs::Tracer *t = net_.trace())
            t->flit(net_.now(), "vc_alloc", id_, pkt, inport, vcid,
                    vc.request, granted);
    }
}

inline bool
Router::readyToSend(PortId inport, VcId vcid, Cycle now) const
{
    const VirtualChannel &vc = inputs_[inport].vc(vcid);
    if (vc.empty() || vc.frozen || !vc.routeValid ||
        vc.grantedVc == kInvalidId) {
        return false;
    }
    if (vc.front().arrivedAt >= now)
        return false; // one-cycle router: cannot leave the arrival cycle
    const OutputUnit &out = outputs_[vc.request];
    if (out.credits(vc.grantedVc) <= 0)
        return false;
    if (out.toNic())
        return true;
    const Link *l = outLink_[vc.request];
    SPIN_ASSERT(l, "granted route over unwired port ", vc.request,
                " at router ", id_);
    return l->freeForFlit(now);
}

void
Router::allocateSwitch()
{
    const Cycle now = net_.now();
    const int n = radix();

    // Stage 1: one candidate VC per input port (round-robin). Only
    // occupied VCs can be ready, so probe the set bits of the
    // occupancy mask in round-robin order: bits >= rrPointer first
    // (ascending), then the wrap-around -- the same probe order the
    // full (rrPointer + k) % vcs scan visited non-empty VCs in.
    // scratchPorts_ holds the per-inport winner VC; entries without a
    // candMask bit are stale and never read.
    if (static_cast<int>(scratchPorts_.size()) < n)
        scratchPorts_.resize(n);
    std::uint64_t candMask = 0; // inports holding a candidate
    std::uint64_t reqMask = 0;  // outports requested by any candidate
    for (PortId inport = 0; inport < n; ++inport) {
        const std::uint64_t occ = occupied_[inport];
        if (occ == 0)
            continue;
        const int rr = inputs_[inport].rrPointer;
        std::uint64_t m = occ >> rr << rr; // bits >= rr, then wrap
        for (int half = 0; half < 2; ++half) {
            for (; m != 0; m &= m - 1) {
                const VcId v = std::countr_zero(m);
                if (readyToSend(inport, v, now)) {
                    scratchPorts_[inport] = v;
                    candMask |= std::uint64_t{1} << inport;
                    reqMask |= std::uint64_t{1}
                               << inputs_[inport].vc(v).request;
                    break;
                }
            }
            if ((candMask >> inport & 1) != 0)
                break;
            m = occ & ~(occ >> rr << rr); // the wrap-around half
        }
    }
    if (candMask == 0)
        return;

    // Stage 2: one input port per output port (round-robin). Outports
    // nobody requested cannot have a winner and are skipped outright.
    for (std::uint64_t om = reqMask; om != 0; om &= om - 1) {
        const PortId outport = std::countr_zero(om);
        PortId winner = kInvalidId;
        for (int k = 0; k < n; ++k) {
            const PortId inport = (outRr_[outport] + k) % n;
            if ((candMask >> inport & 1) != 0 &&
                inputs_[inport].vc(scratchPorts_[inport]).request ==
                    outport) {
                winner = inport;
                break;
            }
        }
        if (winner == kInvalidId)
            continue;
        const VcId v = scratchPorts_[winner];
        sendFlit(winner, v);
        candMask &= ~(std::uint64_t{1} << winner);
        inputs_[winner].rrPointer = (v + 1) % inputs_[winner].numVcs();
        outRr_[outport] = (winner + 1) % n;
        if (candMask == 0)
            return; // no remaining outport can have a winner
    }
}

void
Router::sendFlit(PortId inport, VcId vcid)
{
    const Cycle now = net_.now();
    VirtualChannel &vc = inputs_[inport].vc(vcid);
    const PortId outport = vc.request;
    const VcId dvc = vc.grantedVc;
    const PacketPtr pkt = vc.owner();

    vc.noteProgress(now);
    Flit f = vc.popFlit();
    --*load_;
    --vnetLoad_[vcVnet(vcid)];
    if (vc.empty())
        occupied_[inport] &= ~(std::uint64_t{1} << vcid);
    OutputUnit &out = outputs_[outport];
    out.consumeCredit(dvc);

    const bool isTail = f.isTail();
    const bool isHead = f.isHead();
    const int seq = f.seq;
    if (out.toNic()) {
        net_.nicAt(id_, outport).pushEject(now + 1, std::move(f));
    } else {
        Cycle extra = 0;
        if (faults_)
            extra = faults_->onFlitTraverse(
                net_.linkIndexOf(id_, outport), *pkt, now);
        outLink_[outport]->pushFlitDelayed(now, extra,
                                           LinkFlit{std::move(f), dvc});
    }

    creditUpstream(inport, vcid, isTail);

    if (spin_ && !inputs_[inport].fromNic())
        spin_->onFlitDeparture(inport, vcid);

    if (isHead && !out.toNic()) {
        ++pkt->hops;
        net_.routing().onHop(*pkt, *this, outport);
    }

    if (obs::Tracer *t = net_.trace()) {
        t->flit(now, "sa_grant", id_, *pkt, inport, vcid, outport, dvc);
        if (!out.toNic()) {
            obs::TraceEvent e;
            e.cycle = now;
            e.category = obs::kCatLink;
            e.name = "link_traverse";
            e.router = id_;
            e.packet = pkt->id;
            e.port = outport;
            e.vc = dvc;
            e.arg0 = net_.linkIndexOf(id_, outport);
            e.arg1 = seq;
            t->record(e);
        }
    }
}

void
Router::creditUpstream(PortId inport, VcId vcid, bool is_free)
{
    const Cycle now = net_.now();
    if (inputs_[inport].fromNic()) {
        net_.nicAt(id_, inport).pushCredit(now + 1, vcid, is_free);
    } else {
        Link *l = inLink_[inport];
        SPIN_ASSERT(l, "flit in a VC at unwired in-port ", inport,
                    " of router ", id_);
        l->pushCredit(now + l->latency(), CreditMsg{vcid, is_free});
    }
}

PortId
Router::depRequest(PortId inport, VcId vcid) const
{
    const VirtualChannel &vc = inputs_[inport].vc(vcid);
    if (!vc.active())
        return kInvalidId;
    if (vc.frozen)
        return vc.frozenOutport;
    return vc.routeValid ? vc.request : kInvalidId;
}

bool
Router::isEjectRequest(PortId inport, VcId vcid) const
{
    const PortId req = depRequest(inport, vcid);
    return req != kInvalidId && nicPort_[req];
}

void
Router::forceSend(PortId inport, VcId vcid, PortId outport, VcId down_vc,
                  bool refilled)
{
    const Cycle now = net_.now();
    VirtualChannel &vc = inputs_[inport].vc(vcid);
    SPIN_ASSERT(vc.packetComplete(), "rotating an incomplete packet");
    SPIN_ASSERT(!inputs_[inport].fromNic(), "rotating a local in-port");

    const PacketPtr pkt = vc.owner();
    const int n = pkt->sizeFlits;

    std::vector<LinkFlit> &lfs = scratchPacket_;
    lfs.clear();
    lfs.reserve(n);
    while (!vc.empty()) {
        lfs.push_back(LinkFlit{vc.popFlit(), down_vc});
        --*load_;
        --vnetLoad_[vcVnet(vcid)];
    }
    occupied_[inport] &= ~(std::uint64_t{1} << vcid);

    Link *l = outLink_[outport];
    SPIN_ASSERT(l, "rotation over unwired port");
    OutputUnit &out = outputs_[outport];
    out.forceAllocate(down_vc, pkt->id, now);
    for (int i = 0; i < n; ++i)
        out.consumeCredit(down_vc);
    if (faults_)
        faults_->onRotationTraverse(net_.linkIndexOf(id_, outport), *pkt,
                                    now, n);
    l->pushPacket(now, lfs);

    // Return credits upstream as one burst: the pop is instantaneous
    // in this model, and the credit wire is ordered, so a staggered
    // return could be overtaken by the free signal of the packet
    // rotating *into* this VC. When the loop's upstream member
    // force-allocates this VC in the same cycle (refilled), the isFree
    // tail signal is suppressed so the upstream output unit never sees
    // a spurious release.
    Link *ul = inLink_[inport];
    SPIN_ASSERT(ul, "frozen VC at unwired in-port");
    for (int i = 0; i < n; ++i) {
        const bool free_sig = !refilled && i == n - 1;
        ul->pushCredit(now + ul->latency(), CreditMsg{vcid, free_sig});
    }

    ++pkt->hops;
    ++pkt->spins;
    net_.routing().onHop(*pkt, *this, outport);
    ++net_.stats().packetsRotated;

    if (spin_)
        spin_->onFlitDeparture(inport, vcid);

    if (obs::Tracer *t = net_.trace())
        t->flit(now, "spin_rotate", id_, *pkt, inport, vcid, outport,
                down_vc);
}

void
Router::grantReserved(PortId inport, VcId vcid, PortId outport,
                      VcId down_vc)
{
    VirtualChannel &vc = inputs_[inport].vc(vcid);
    SPIN_ASSERT(vc.routeValid && vc.grantedVc == kInvalidId,
                "reserved grant on a VC that is not waiting");
    Packet &pkt = *vc.owner();

    // Re-target the packet's request to the recovery entry port.
    vc.request = outport;
    scratchVcs_.clear();
    scratchVcs_.push_back(down_vc);
    const VcId got = outputs_[outport].allocate(scratchVcs_, pkt.id,
                                                net_.now());
    SPIN_ASSERT(got == down_vc, "reserved VC was not idle");
    vc.grantedVc = got;
    pkt.onEscape = true;
    ++net_.stats().bubbleRecoveries;

    if (obs::Tracer *t = net_.trace())
        t->spin(net_.now(), "bubble_grant", id_, nullptr, inport, vcid);
}

} // namespace spin
