/**
 * @file
 * Runtime fault injector: applies a FaultSchedule to a live Network.
 *
 * The injector owns the fault state the rest of the simulator queries:
 * which links have failed, which routers are dead, which links are in a
 * transient outage or flaky window, and the degraded routing tables (a
 * Topology rebuilt with finalizePartial() after each permanent fault).
 * Permanent-failure semantics are *drain-based*: a failed link or dead
 * router stops accepting NEW commitments (routing filter, NIC admission
 * gate, SM launch drop) while packets that already hold a granted VC
 * drain normally -- so flow control never wedges on credits that will
 * not return. Transient outages and flaky windows are *data-plane*
 * corruption: the link keeps moving flits (control is assumed on a
 * protected sideband) but garbles them, and the reliability layer
 * (link-level retry + NIC retransmission, docs/FAULTS.md) recovers.
 * With no injector attached every hook is a null check and behavior is
 * bit-identical to the fault-free simulator.
 */

#ifndef SPINNOC_FAULT_FAULTINJECTOR_HH
#define SPINNOC_FAULT_FAULTINJECTOR_HH

#include <memory>
#include <vector>

#include "common/Packet.hh"
#include "common/Types.hh"
#include "fault/FaultSchedule.hh"
#include "obs/Json.hh"

namespace spin
{
class Network;
}

namespace spin::fault
{

/** See file comment. Owned by the Network (attachFaults). */
class FaultInjector
{
  public:
    /** @p schedule is validated and concretized against net's topology
     *  (FatalError on an invalid schedule). */
    FaultInjector(Network &net, FaultSchedule schedule);

    /** Apply every event due at @p now. Called at the top of
     *  Network::step(), before wire arrivals. */
    void tick(Cycle now);

    /// @name Fault state queries (hot paths)
    /// @{
    /** True when link index @p li has permanently failed. */
    bool linkFailed(int li) const
    {
        return li >= 0 && failedLink_[static_cast<std::size_t>(li)];
    }
    /** True when router @p r has permanently failed. */
    bool routerDead(RouterId r) const
    {
        return deadRouter_[static_cast<std::size_t>(r)];
    }
    /** True once any permanent fault has been applied -- the routing
     *  fast path skips all fault filtering until then. */
    bool anyPermanent() const { return anyPermanent_; }
    /** True when out-port @p p of router @p r still leads somewhere
     *  (NIC and unwired ports count as alive). */
    bool outPortAlive(RouterId r, PortId p) const;
    /// @}

    /// @name Degraded routing tables
    /// @{
    /** The surviving topology (the base topology until the first
     *  permanent fault). */
    const Topology &degraded() const;
    /** Hop distance in the surviving topology; -1 when unreachable. */
    int degradedDistance(RouterId from, RouterId to) const
    {
        return degraded().distance(from, to);
    }
    /// @}

    /**
     * Transient-fault hook: called by Router::sendFlit for every flit
     * entering link @p li. Consumes pending corrupt/drop arms and
     * evaluates the link's outage / flaky state. With the reliability
     * layer off, a corrupted transmission marks the packet corrupted
     * (legacy behavior). With it on, corrupted transmissions are
     * retried up to reliability.maxLinkRetries times -- modeled
     * analytically as an arrival delay of one link round trip per
     * failed attempt -- and only a retry-exhausted flit marks the
     * packet corrupted for the end-to-end layer to recover.
     *
     * @return extra arrival delay in cycles (0 on the fault-free path).
     */
    Cycle onFlitTraverse(int li, Packet &pkt, Cycle now);

    /**
     * Transient-fault hook for the SPIN rotation path
     * (Router::forceSend): consumes pending corrupt/drop arms and
     * evaluates outage / flaky corruption for @p flits rotated flits.
     * Rotations are never retried (the synchronized spin cannot stall
     * on a NACK); a corrupted rotation delivers the packet poisoned
     * and, with reliability on, the end-to-end layer recovers it.
     */
    void onRotationTraverse(int li, Packet &pkt, Cycle now, int flits);

    /** Concrete (macro-expanded) event list, sorted by cycle. */
    const std::vector<FaultEvent> &events() const { return concrete_; }
    /** Events applied so far. */
    std::size_t applied() const { return nextIdx_; }

    obs::JsonValue toJson() const;

  private:
    /** Apply @p e's effect to every link its target hits. */
    void apply(const FaultEvent &e, Cycle now);
    /** Apply @p effect of @p e to link index @p li. */
    void hitLink(const FaultEvent &e, FaultEffect effect, int li);
    void noteApplied(const FaultEvent &e, Cycle now);
    /** One transmission attempt on link @p li at cycle @p t: corrupted
     *  by an active outage window or a flaky Bernoulli hit? Consumes
     *  one draw from the link's flaky stream when its window is live. */
    bool corruptAttempt(std::size_t li, Cycle t);
    void traceFlitEvent(const char *name, int li, const Packet &pkt,
                        Cycle now, std::int64_t arg1);

    Network &net_;
    FaultSchedule schedule_;
    std::vector<FaultEvent> concrete_;
    std::size_t nextIdx_ = 0;

    std::vector<char> failedLink_;
    std::vector<char> deadRouter_;
    bool anyPermanent_ = false;

    /** Per-link armed transient counts, consumed by onFlitTraverse. */
    std::vector<int> pendingCorrupt_;
    std::vector<int> pendingDrop_;

    /** Per-link outage window end (exclusive); 0 = never in outage. */
    std::vector<Cycle> outageEnd_;
    /** Per-link flaky window end (exclusive), probability and Bernoulli
     *  stream state. The transmission counter is advanced only by the
     *  shard that owns the link's source router (or by serial phases),
     *  so the stream is single-writer and bit-deterministic for any
     *  thread count. */
    std::vector<Cycle> flakyEnd_;
    std::vector<double> flakyProb_;
    std::vector<std::uint64_t> flakySeed_;
    std::vector<std::uint64_t> flakyTx_;

    /** Rebuilt after each tick that applied a permanent event. */
    std::shared_ptr<const Topology> degraded_;
};

} // namespace spin::fault

#endif // SPINNOC_FAULT_FAULTINJECTOR_HH
