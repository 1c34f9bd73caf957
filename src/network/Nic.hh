/**
 * @file
 * Network interface controller: injects packets offered by the traffic
 * layer into its router's local input port (acquiring VCs like any
 * upstream router would) and ejects arriving packets without stalls, as
 * the paper assumes.
 */

#ifndef SPINNOC_NETWORK_NIC_HH
#define SPINNOC_NETWORK_NIC_HH

#include <set>
#include <unordered_map>
#include <vector>

#include "common/Packet.hh"
#include "common/Types.hh"
#include "network/Link.hh"
#include "obs/Json.hh"
#include "router/OutputUnit.hh"
#include "sim/DelayLine.hh"
#include "sim/Ring.hh"

namespace spin
{

class Network;

/** End-to-end acknowledgement riding the protected sideband back to the
 *  source NIC (reliability layer, docs/FAULTS.md). */
struct AckMsg
{
    /** Destination node of the acked flow (the acking NIC). */
    NodeId dest = kInvalidId;
    /** Acked per-flow sequence number. */
    std::uint64_t seq = 0;
};

/** See file comment. NIC links have 1-cycle latency in each direction. */
class Nic
{
  public:
    Nic(Network &net, NodeId id);

    NodeId id() const { return id_; }
    RouterId router() const { return router_; }
    PortId port() const { return port_; }

    /** Queue a packet for injection (unbounded source queue). */
    void offer(const PacketPtr &pkt);
    /** Packets waiting, including the one currently streaming. */
    std::size_t queueLength() const;

    /// @name Per-cycle phases, called by Network::step()
    /// @{
    /**
     * Deliver injection-wire flits into the attached router and credit
     * arrivals into the local tracker. Shard-parallel: touches only
     * this NIC and its attachment router (same shard by construction).
     */
    void drainArrivalWires(Cycle now);
    /**
     * Retire tail flits off the eject wire: latency/eject accounting,
     * the eject trace event, and Network::notifyEjected (whose listener
     * may create new packets). Serial phase -- packet-id allocation and
     * in-flight accounting need one canonical order.
     */
    void drainEjectWire(Cycle now);
    /** Try to push one flit of the current packet toward the router. */
    void injectStep(Cycle now);
    /**
     * End-to-end reliability phase (reliability.enabled only): drain
     * arriving acks, fire expired retransmit timers (exponential
     * backoff, escalation to abandonment past maxRetransmits), and run
     * the livelock watchdog. Serial phase -- retransmission allocates
     * packet ids and must happen in canonical NIC order.
     */
    void reliabilityStep(Cycle now);
    /// @}

    /** Called by the router side: flit ejected toward this NIC. */
    void pushEject(Cycle arrival, Flit f);
    /** Called by the router side: credit for local in-port VC @p vc. */
    void pushCredit(Cycle arrival, VcId vc, bool is_free);
    /** Called by a destination NIC (serial eject phase): ack of
     *  sequence @p seq on this NIC's flow to @p dest. */
    void pushAck(Cycle arrival, NodeId dest, std::uint64_t seq);

    /// @name Reliability inspection (forensics, chaos audits)
    /// @{
    /** Unacked packets tracked for retransmission. */
    std::size_t retxQueueLength() const { return retx_.size(); }
    /** Retransmit-queue state document (watchdog forensics dumps). */
    obs::JsonValue retxJson(Cycle now) const;
    /// @}

    /** Upstream view of the router's local in-port VCs. */
    const OutputUnit &tracker() const { return tracker_; }

    /// @name State-digest inspection (model checker)
    /// @{
    /** Flits of the current packet still to stream into the router. */
    std::size_t streamRemaining() const { return cur_.size() - curIdx_; }
    /** VC the current packet is streaming into; kInvalidId when idle. */
    VcId streamVc() const { return curVc_; }
    /** Visit queued (not yet streaming) packets in order. */
    template <typename F>
    void
    forEachQueued(F &&fn) const
    {
        for (std::size_t i = 0; i < queue_.size(); ++i)
            fn(*queue_[i]);
    }
    /** Visit in-flight injection flits as (arrival, LinkFlit). */
    template <typename F>
    void
    forEachInjFlit(F &&fn) const
    {
        injWire_.forEach(fn);
    }
    /** Visit in-flight ejection flits as (arrival, Flit). */
    template <typename F>
    void
    forEachEjectFlit(F &&fn) const
    {
        ejectWire_.forEach(fn);
    }
    /** Visit in-flight NIC credits as (arrival, CreditMsg). */
    template <typename F>
    void
    forEachCredit(F &&fn) const
    {
        credWire_.forEach(fn);
    }
    /// @}

  private:
    Network &net_;
    NodeId id_;
    RouterId router_;
    PortId port_;

    Ring<PacketPtr> queue_;
    /** Flits of the packet currently streaming in; curIdx_ is next. */
    std::vector<Flit> cur_;
    std::size_t curIdx_ = 0;
    VcId curVc_ = kInvalidId;

    OutputUnit tracker_;
    /** Scratch for headInjectionVcs(), reused to avoid per-packet churn. */
    std::vector<VcId> scratchVcs_;
    DelayLine<LinkFlit> injWire_;
    DelayLine<Flit> ejectWire_;
    DelayLine<CreditMsg> credWire_;

    /// @name End-to-end reliability state (reliability.enabled)
    /// @{
    /** One unacked packet; the PacketPtr is swapped for the newest
     *  retransmitted copy on each timeout. */
    struct RetxEntry
    {
        PacketPtr pkt;
        /** Watchdog already fired for this packet (one-shot). */
        bool alarmed = false;
    };
    /** Sent-but-unacked packets, oldest first. */
    std::vector<RetxEntry> retx_;
    /** Next sequence number per destination node (this NIC as source).
     *  Looked up only (never iterated), so the map is deterministic. */
    std::unordered_map<NodeId, std::uint64_t> nextSeq_;
    /** Duplicate-suppression window of one incoming flow: every
     *  sequence < base was delivered; sparse later arrivals sit in
     *  seen until base catches up. Protocol state, deliberately NOT
     *  reset by beginMeasurement(). */
    struct FlowState
    {
        std::uint64_t base = 0;
        std::set<std::uint64_t> seen;
    };
    /** Per-source-node incoming flows (this NIC as destination). */
    std::unordered_map<NodeId, FlowState> flows_;
    /** Acks in flight toward this (source) NIC. */
    DelayLine<AckMsg> ackWire_;
    /// @}

    void sendAck(const Packet &p, Cycle now);
    void armAckDeadline(Packet &p, Cycle now) const;
    void retireReliable(const Flit &f, Cycle now);

    static constexpr Cycle kNicLatency = 1;
};

} // namespace spin

#endif // SPINNOC_NETWORK_NIC_HH
