/**
 * @file
 * Packet and flit definitions.
 *
 * The datapath is virtual cut-through (VCT), as in the paper's reference
 * implementation: a packet acquires a whole downstream virtual channel
 * before its head flit leaves, and the VC buffer is at least one maximum
 * packet deep, so a blocked packet always sits entirely inside one VC.
 * Flits of one packet share a single heap-allocated Packet record that
 * carries identity, timing and routing state.
 */

#ifndef SPINNOC_COMMON_PACKET_HH
#define SPINNOC_COMMON_PACKET_HH

#include <memory>
#include <string>
#include <vector>

#include "common/Types.hh"

namespace spin
{

/**
 * One network packet. Routing state mutated in flight lives here so that
 * adaptive algorithms (UGAL, FAvORS) can track phase across hops.
 */
struct Packet
{
    PacketId id = 0;
    NodeId src = kInvalidId;
    NodeId dest = kInvalidId;
    RouterId destRouter = kInvalidId;
    VnetId vnet = 0;
    int sizeFlits = 1;

    /** Cycle the traffic source created the packet (queueing included). */
    Cycle createCycle = 0;
    /** Cycle the head flit left the NIC and entered the first router. */
    Cycle injectCycle = kNeverCycle;
    /** Cycle the tail flit was ejected at the destination NIC. */
    Cycle ejectCycle = kNeverCycle;

    /** Hops actually taken (incremented per router traversal). */
    int hops = 0;

    /// @name Adaptive-routing state
    /// @{
    /** Valiant / FAvORS non-minimal phase-1 target router. */
    RouterId intermediate = kInvalidId;
    /** True once the intermediate router has been reached. */
    bool phaseTwo = false;
    /** Misroute count (livelock bound `p` of the paper's theorem). */
    int misroutes = 0;
    /** Global links traversed so far (UGAL VC ordering on dragonfly). */
    int globalHops = 0;
    /** True once the packet entered the Duato escape / reserved network. */
    bool onEscape = false;
    /// @}

    /** Number of SPIN rotations this packet took part in. */
    int spins = 0;

    /// @name Fault-injection marks (src/fault)
    /// @{
    /** A transient fault corrupted a flit of this packet in flight and
     *  no link-level retry repaired it. The packet's one corruption
     *  mark: the destination NIC rejects a marked packet as a failed
     *  end-to-end check (reliability on). */
    bool corrupted = false;
    /** A transient fault marked this packet for discard at the
     *  destination NIC (it still ejects; only accounting differs). */
    bool faultDropped = false;
    /// @}

    /// @name End-to-end reliability state (src/network, reliability on)
    /// @{
    /** Tracked by the source NIC's retransmit queue. */
    bool reliable = false;
    /** Per-(source, destination)-flow sequence number, stamped at
     *  offer time; duplicate suppression at the destination keys on it. */
    std::uint64_t e2eSeq = 0;
    /** Transmission attempt, 0 for the original copy. */
    int attempt = 0;
    /** Packet id of the original copy (== id for attempt 0). */
    PacketId origId = 0;
    /** At least one flit needed a link-level retransmission. */
    bool linkRetried = false;
    /** Ack deadline armed when the tail flit leaves the source NIC;
     *  kNeverCycle while still queued or streaming. */
    Cycle ackDeadline = kNeverCycle;
    /// @}

    /** True once sourceRoute() ran at the source NIC. */
    bool sourceRouted = false;

    /** End-to-end latency including source queueing. @pre ejected. */
    Cycle latency() const { return ejectCycle - createCycle; }
    /** In-network latency (inject to eject). @pre injected and ejected. */
    Cycle networkLatency() const { return ejectCycle - injectCycle; }

    std::string toString() const;
};

using PacketPtr = std::shared_ptr<Packet>;

/** One flit; flits of a packet share the Packet record. */
struct Flit
{
    PacketPtr pkt;
    FlitType type = FlitType::HeadTail;
    /** Sequence number within the packet, 0-based. */
    int seq = 0;
    /** Cycle this flit arrived at the current router (1-cycle router:
     *  a flit may not leave the cycle it arrives). */
    Cycle arrivedAt = 0;

    bool isHead() const { return isHeadFlit(type); }
    bool isTail() const { return isTailFlit(type); }

    std::string toString() const;
};

/**
 * Build all flits of @p pkt in order.
 *
 * @param pkt shared packet record (sizeFlits read from it)
 * @return vector of sizeFlits flits with correct head/body/tail types
 */
std::vector<Flit> makeFlits(const PacketPtr &pkt);
/** Like makeFlits() but fills @p flits, reusing its capacity. */
void makeFlitsInto(const PacketPtr &pkt, std::vector<Flit> &flits);

} // namespace spin

#endif // SPINNOC_COMMON_PACKET_HH
