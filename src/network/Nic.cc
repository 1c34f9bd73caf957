#include "network/Nic.hh"

#include "common/Logging.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "obs/Forensics.hh"
#include "obs/Tracer.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin
{

namespace
{

/** Reliability-protocol trace event (fault category, like the injector's
 *  own events, so chaos runs filter on one category). */
void
traceRel(Network &net, Cycle now, const char *name, RouterId router,
         PortId port, const Packet &p, std::int64_t arg0, std::int64_t arg1)
{
    obs::Tracer *t = net.trace();
    if (!t)
        return;
    obs::TraceEvent e;
    e.cycle = now;
    e.category = obs::kCatFault;
    e.name = name;
    e.router = router;
    e.packet = p.id;
    e.port = port;
    e.arg0 = arg0;
    e.arg1 = arg1;
    t->record(e);
}

} // namespace

Nic::Nic(Network &net, NodeId id)
    : net_(net),
      id_(id),
      router_(net.topo().routerOfNode(id)),
      port_(net.topo().portOfNode(id)),
      tracker_(port_, false, net.config().totalVcs(), net.config().vcDepth)
{
}

void
Nic::offer(const PacketPtr &pkt)
{
    SPIN_ASSERT(pkt->src == id_, "packet offered to wrong NIC");
    if (net_.config().reliability.enabled && !pkt->reliable) {
        // Fresh packet entering the reliable layer: stamp its per-flow
        // sequence number and start tracking it for retransmission.
        // Retransmitted copies arrive here already stamped (reliable
        // set by makeRetransmit) and keep their existing entry.
        pkt->reliable = true;
        pkt->origId = pkt->id;
        pkt->e2eSeq = nextSeq_[pkt->dest]++;
        retx_.push_back(RetxEntry{pkt, false});
    }
    queue_.push_back(pkt);
}

std::size_t
Nic::queueLength() const
{
    return queue_.size();
}

void
Nic::drainArrivalWires(Cycle now)
{
    injWire_.drainInto(now, [&](LinkFlit &lf) {
        net_.router(router_).receiveFlit(port_, lf.vc,
                                         std::move(lf.flit));
    });

    credWire_.drainInto(now, [&](const CreditMsg &c) {
        tracker_.onCredit(c.vc, c.isFree, now);
    });
}

void
Nic::drainEjectWire(Cycle now)
{
    ejectWire_.drainInto(now, [&](const Flit &f) {
        if (!f.isTail())
            return;
        f.pkt->ejectCycle = now;
        if (f.pkt->reliable) {
            retireReliable(f, now);
            return;
        }
        // A drop-marked packet is discarded by the end node; it still
        // ejected, so flow control is untouched and only the
        // accounting differs.
        if (f.pkt->faultDropped)
            ++net_.stats().packetsDroppedAtNic;
        net_.stats().onEject(*f.pkt);
        if (obs::Tracer *t = net_.trace())
            t->flit(now, "eject", router_, *f.pkt, port_, kInvalidId,
                    f.pkt->latency(), f.pkt->hops);
        net_.notifyEjected(f.pkt);
    });
}

void
Nic::retireReliable(const Flit &f, Cycle now)
{
    Packet &p = *f.pkt;
    Stats &st = net_.stats();
    if (p.faultDropped || p.corrupted) {
        // The end node rejects a corrupted or drop-marked copy:
        // discard without acking and let the source's timeout drive a
        // retransmission. The copy still ejected, so flow control is
        // untouched.
        ++st.packetsDroppedAtNic;
        net_.notifyLost(f.pkt);
        return;
    }
    FlowState &flow = flows_[p.src];
    const bool dup =
        p.e2eSeq < flow.base || flow.seen.count(p.e2eSeq) != 0;
    if (dup) {
        // Already delivered (an earlier copy won the race). Drop the
        // duplicate quietly but re-ack: the original ack may have been
        // outrun by the retransmit timer.
        ++st.dupDrops;
        traceRel(net_, now, "dup_drop", router_, port_, p,
                 static_cast<std::int64_t>(p.e2eSeq), p.attempt);
        net_.notifyLost(f.pkt);
        sendAck(p, now);
        return;
    }
    flow.seen.insert(p.e2eSeq);
    while (flow.seen.count(flow.base) != 0) {
        flow.seen.erase(flow.base);
        ++flow.base;
    }
    if (p.attempt > 0 || p.linkRetried)
        ++st.recoveredPackets;
    st.onEject(p);
    if (obs::Tracer *t = net_.trace())
        t->flit(now, "eject", router_, p, port_, kInvalidId,
                p.latency(), p.hops);
    net_.notifyEjected(f.pkt);
    sendAck(p, now);
}

void
Nic::sendAck(const Packet &p, Cycle now)
{
    // The ack rides the protected control sideband: one cycle per hop
    // of the base topology plus the NIC hop. Model-level shortcut --
    // it never contends with data flits.
    const int d =
        net_.topo().distance(router_, net_.nic(p.src).router());
    const Cycle delay = d < 0 ? 1 : static_cast<Cycle>(d) + 1;
    net_.nic(p.src).pushAck(now + delay, id_, p.e2eSeq);
}

void
Nic::injectStep(Cycle now)
{
    const fault::FaultInjector *fi = net_.faults();
    if (fi && fi->routerDead(router_)) {
        // Our attachment router died: nothing queued here can ever
        // enter the network. Retire everything so drain loops end.
        Stats &st = net_.stats();
        if (!cur_.empty()) {
            st.flitsLostToFaults += cur_.size() - curIdx_;
            ++st.packetsLostToFaults;
            // cur_[0].pkt may already be moved-from (flits hand their
            // ref over as they depart); the packet stays queue_.front()
            // until its tail leaves, so arm the backoff clock there.
            if (queue_.front()->reliable)
                armAckDeadline(*queue_.front(), now);
            net_.notifyLost(cur_[0].pkt);
            cur_.clear();
            curIdx_ = 0;
            curVc_ = kInvalidId;
            queue_.pop_front();
        }
        while (!queue_.empty()) {
            ++st.packetsUnroutable;
            // A reliable copy that dies here never departs, so its ack
            // clock would stay unarmed and the retransmit entry would
            // park forever. Arm it at the refusal instead: the ladder
            // keeps backing off and eventually abandons the flow.
            if (queue_.front()->reliable)
                armAckDeadline(*queue_.front(), now);
            net_.notifyLost(queue_.front());
            queue_.pop_front();
        }
        return;
    }

    if (cur_.empty()) {
        if (queue_.empty())
            return;
        const PacketPtr &pkt = queue_.front();

        if (fi && fi->anyPermanent() &&
            (fi->routerDead(pkt->destRouter) ||
             fi->degradedDistance(router_, pkt->destRouter) < 0)) {
            // Destination unreachable on the degraded topology; refuse
            // the packet at the source instead of wedging a VC.
            ++net_.stats().packetsUnroutable;
            if (obs::Tracer *t = net_.trace()) {
                obs::TraceEvent e;
                e.cycle = now;
                e.category = obs::kCatFault;
                e.name = "packet_unroutable";
                e.router = router_;
                e.packet = pkt->id;
                e.port = port_;
                t->record(e);
            }
            // Same unarmed-clock hazard as the dead-router drain above:
            // start the backoff at the refusal so the escalation
            // ladder still runs out and abandons the flow.
            if (pkt->reliable)
                armAckDeadline(*pkt, now);
            net_.notifyLost(pkt);
            queue_.pop_front();
            return; // one retirement per cycle keeps the step bounded
        }

        if (!pkt->sourceRouted) {
            net_.routing().sourceRoute(*pkt, router_);
            pkt->sourceRouted = true;
        }

        net_.routing().headInjectionVcs(*pkt, net_.router(router_),
                                        scratchVcs_);
        const VcId vc = tracker_.allocate(scratchVcs_, pkt->id, now);
        if (vc == kInvalidId)
            return; // no free VC at the local in-port yet
        curVc_ = vc;
        makeFlitsInto(pkt, cur_); // reuses cur_'s capacity
        curIdx_ = 0;
    }

    if (tracker_.credits(curVc_) <= 0)
        return;

    Flit &f = cur_[curIdx_];
    tracker_.consumeCredit(curVc_);

    Stats &st = net_.stats();
    if (f.isHead()) {
        f.pkt->injectCycle = now;
        ++st.packetsInjected;
        if (obs::Tracer *t = net_.trace())
            t->flit(now, "inject", router_, *f.pkt, port_, curVc_);
    }
    ++st.flitsInjected;

    // cur_ is consumed front to back, one flit per cycle; each slot is
    // dead after this push, so hand the flit over instead of copying.
    injWire_.push(now + kNicLatency, LinkFlit{std::move(f), curVc_});

    ++curIdx_;
    if (curIdx_ == cur_.size()) {
        // Tail departure: the whole packet is on the wire, so the ack
        // clock starts only now -- a long source queue never fires a
        // spurious timeout.
        if (queue_.front()->reliable)
            armAckDeadline(*queue_.front(), now);
        queue_.pop_front();
        cur_.clear();
        curIdx_ = 0;
        curVc_ = kInvalidId;
    }
}

void
Nic::armAckDeadline(Packet &p, Cycle now) const
{
    const ReliabilityConfig &rel = net_.config().reliability;
    // Exponential backoff, shift-clamped so the deadline never wraps.
    const int shift = p.attempt < 16 ? p.attempt : 16;
    p.ackDeadline = now + (rel.ackTimeout << shift);
}

void
Nic::pushAck(Cycle arrival, NodeId dest, std::uint64_t seq)
{
    ackWire_.push(arrival, AckMsg{dest, seq});
}

void
Nic::reliabilityStep(Cycle now)
{
    const ReliabilityConfig &rel = net_.config().reliability;

    ackWire_.drainInto(now, [&](const AckMsg &a) {
        for (auto it = retx_.begin(); it != retx_.end(); ++it) {
            if (it->pkt->dest == a.dest && it->pkt->e2eSeq == a.seq) {
                retx_.erase(it);
                break;
            }
        }
    });

    Stats &st = net_.stats();
    for (auto it = retx_.begin(); it != retx_.end();) {
        Packet &p = *it->pkt;

        // Livelock watchdog: "recovering" (timers armed, attempts left)
        // is fine; a packet alive past the cycle budget is "stuck" and
        // worth forensics, once.
        if (!it->alarmed && now - p.createCycle > rel.watchdogBudget) {
            it->alarmed = true;
            ++st.watchdogAlarms;
            traceRel(net_, now, "watchdog_stuck", router_, port_, p,
                     static_cast<std::int64_t>(p.e2eSeq), p.attempt);
            if (obs::Forensics *fo = net_.forensics()) {
                fo->noteFault(now, "watchdog: node " +
                                       std::to_string(id_) + " pkt#" +
                                       std::to_string(p.origId) +
                                       " stuck for " +
                                       std::to_string(now - p.createCycle) +
                                       " cycles; retx state " +
                                       retxJson(now).dump());
            }
        }

        if (p.ackDeadline == kNeverCycle || now < p.ackDeadline) {
            ++it;
            continue;
        }

        if (p.attempt >= rel.maxRetransmits) {
            // Escalation exhausted: retire the flow entry with its own
            // counter. The copy still in the network settles its own
            // in-flight accounting when it ejects or is discarded.
            ++st.packetsAbandoned;
            traceRel(net_, now, "retx_abandon", router_, port_, p,
                     static_cast<std::int64_t>(p.e2eSeq), p.attempt);
            if (obs::Forensics *fo = net_.forensics())
                fo->noteFault(now, "abandoned pkt#" +
                                       std::to_string(p.origId) +
                                       " (node " + std::to_string(id_) +
                                       " -> " + std::to_string(p.dest) +
                                       ", seq " +
                                       std::to_string(p.e2eSeq) + ") @ cycle " +
                                       std::to_string(now));
            it = retx_.erase(it);
            continue;
        }

        // Timeout: inject a fresh copy and rearm lazily (the deadline
        // is armed when the copy's tail actually leaves).
        const PacketPtr clone = net_.makeRetransmit(it->pkt);
        ++st.retransmits;
        traceRel(net_, now, "retx", router_, port_, *clone,
                 static_cast<std::int64_t>(clone->e2eSeq), clone->attempt);
        it->pkt = clone;
        ++it;
    }
}

obs::JsonValue
Nic::retxJson(Cycle now) const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("node", JsonValue(id_));
    o.set("depth", JsonValue(static_cast<std::uint64_t>(retx_.size())));
    JsonValue entries = JsonValue::array();
    for (const RetxEntry &e : retx_) {
        JsonValue j = JsonValue::object();
        j.set("pkt", JsonValue(e.pkt->id));
        j.set("origId", JsonValue(e.pkt->origId));
        j.set("dest", JsonValue(e.pkt->dest));
        j.set("seq", JsonValue(e.pkt->e2eSeq));
        j.set("attempt", JsonValue(e.pkt->attempt));
        j.set("age", JsonValue(now - e.pkt->createCycle));
        j.set("deadline", e.pkt->ackDeadline == kNeverCycle
                              ? JsonValue("unarmed")
                              : JsonValue(e.pkt->ackDeadline));
        j.set("alarmed", JsonValue(e.alarmed));
        entries.push(std::move(j));
    }
    o.set("entries", std::move(entries));
    return o;
}

void
Nic::pushEject(Cycle arrival, Flit f)
{
    ejectWire_.push(arrival, std::move(f));
}

void
Nic::pushCredit(Cycle arrival, VcId vc, bool is_free)
{
    credWire_.push(arrival, CreditMsg{vc, is_free});
}

} // namespace spin
