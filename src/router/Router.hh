/**
 * @file
 * One-cycle virtual-cut-through router.
 *
 * Pipeline model (matching Garnet's 1-cycle router that the paper
 * simulates): flits arriving at cycle t are eligible for route compute,
 * VC allocation and switch allocation at cycle t+1 and traverse the link
 * the same cycle, arriving downstream at t+1+L.
 *
 * The router exposes the hooks SPIN needs: per-VC requested output ports
 * (buffer dependencies), freeze/unfreeze, and forced sends for the
 * synchronized rotation.
 */

#ifndef SPINNOC_ROUTER_ROUTER_HH
#define SPINNOC_ROUTER_ROUTER_HH

#include <memory>
#include <vector>

#include "common/Config.hh"
#include "common/Packet.hh"
#include "common/Random.hh"
#include "common/Types.hh"
#include "network/Link.hh"
#include "router/InputUnit.hh"
#include "router/OutputUnit.hh"

namespace spin
{

class Network;
class SpinUnit;

namespace fault
{
class FaultInjector;
}

/** See file comment. */
class Router
{
  public:
    Router(Network &net, RouterId id);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    RouterId id() const { return id_; }
    int radix() const { return static_cast<int>(inputs_.size()); }

    InputUnit &input(PortId p) { return inputs_[p]; }
    const InputUnit &input(PortId p) const { return inputs_[p]; }
    OutputUnit &output(PortId p) { return outputs_[p]; }
    const OutputUnit &output(PortId p) const { return outputs_[p]; }

    /** True when @p p connects to a NIC. */
    bool isNicPort(PortId p) const { return nicPort_[p]; }

    /** The network this router belongs to. */
    Network &network() { return net_; }
    const Network &network() const { return net_; }

    /**
     * This router's private RNG stream (seeded from the network seed
     * and the router id). All stochastic routing decisions made *at*
     * this router -- adaptive tie-breaks, intermediate-node picks for
     * packets injected here -- draw from it, so the draws are
     * independent of the order other routers execute in and the
     * sharded step loop stays bit-deterministic for any thread count.
     * Mutable: select() sees a const Router but the draw is state.
     */
    Random &rng() const { return rng_; }

    /** SPIN per-router unit; nullptr unless scheme == Spin. */
    SpinUnit *spinUnit() { return spin_.get(); }
    const SpinUnit *spinUnit() const { return spin_.get(); }
    void setSpinUnit(std::unique_ptr<SpinUnit> u);

    /// @name Fault hooks (src/fault)
    /// @{
    /** Cache the network's injector (set by Network::attachFaults). */
    void setFaultInjector(fault::FaultInjector *f) { faults_ = f; }
    /** True once markDead() ran: the router accepts nothing. */
    bool dead() const { return dead_; }
    /**
     * Permanent router failure: purge every buffered flit (packets
     * whose tail is here are retired via Network::notifyLost; fragments
     * whose tail is still upstream are retired when the tail arrives
     * and is dropped), abort any SPIN state, and refuse all future
     * flits and credits. No upstream credits are returned -- upstream
     * output VCs pointing here stay allocated, which is the modeled
     * loss, and new routes avoid the router via the degraded tables.
     */
    void markDead(Cycle now);
    /// @}

    /// @name Per-cycle phases, called by Network::step()
    /// @{
    /** A flit arrived from the wire into (inport, vc). */
    void receiveFlit(PortId inport, VcId vc, Flit f);
    /** A credit arrived for downstream VC @p vc of @p outport. */
    void receiveCredit(PortId outport, VcId vc, bool is_free);
    /** Route compute + VC allocation for head packets. */
    void computeRoutes();
    /** Switch allocation + link traversal. */
    void allocateSwitch();
    /// @}

    /** How a head may leave this router; see routeOptions(). */
    enum class RouteStatus : std::uint8_t
    {
        Fixed,       //!< ejecting or on the recovery network: one port
        Candidates,  //!< the routing layer's ports, fault-filtered
        Degraded,    //!< faults left none: the degraded tables' ports
        Unreachable, //!< no surviving path to the target: no port
    };
    struct RouteOptions
    {
        RouteStatus status;
        /** Intermediate until reached or cut off, then destination. */
        RouterId target;
    };
    /** Ports head @p pkt may request here, into @p out: headPorts()
     *  toward the current target, fault-filtered. Route compute selects
     *  among them; the deadlock oracle judges the same set. */
    RouteOptions routeOptions(const Packet &pkt,
                              std::vector<PortId> &out) const;

    /// @name Dependency queries (used by SPIN and the oracle detector)
    /// @{
    /**
     * Output port the packet in (inport, vc) is currently waiting on:
     * the frozen port when frozen, else the live request.
     * kInvalidId when idle or not yet routed.
     */
    PortId depRequest(PortId inport, VcId vc) const;
    /** True when that request is the ejection (NIC) port. */
    bool isEjectRequest(PortId inport, VcId vc) const;
    /// @}

    /**
     * SPIN rotation: force the complete packet in (inport, vc) out of
     * @p outport into downstream VC @p down_vc, bypassing allocation.
     * Handles credits, link busy accounting and routing hooks.
     *
     * @param refilled true when another rotating packet enters this VC
     *        in the same cycle (the normal closed-loop case); when
     *        false the final upstream credit carries the free signal so
     *        the upstream output unit releases the VC.
     */
    void forceSend(PortId inport, VcId vc, PortId outport, VcId down_vc,
                   bool refilled);

    /**
     * Static Bubble recovery: grant the reserved downstream VC
     * @p down_vc of @p outport to the blocked head in (inport, vc).
     */
    void grantReserved(PortId inport, VcId vc, PortId outport,
                       VcId down_vc);

    /**
     * Flits currently buffered in this router's input VCs. Zero means
     * computeRoutes()/allocateSwitch() are no-ops this cycle, which
     * Network::step() uses to skip idle routers.
     */
    int bufferedFlits() const { return *load_; }

    /** Flits buffered in input VCs belonging to @p vnet. Maintained
     *  incrementally next to the load slot, so the metrics gauges
     *  never walk the VC table. */
    std::uint64_t bufferedFlitsInVnet(VnetId vnet) const
    {
        return vnetLoad_[static_cast<std::size_t>(vnet)];
    }

    /** Switch-allocation round-robin pointer of @p outport. Part of the
     *  router's behavioral state, so state digests must include it. */
    PortId switchRrPointer(PortId outport) const
    {
        return outRr_[outport];
    }

  private:
    Network &net_;
    RouterId id_;
    std::vector<InputUnit> inputs_;
    std::vector<OutputUnit> outputs_;
    std::vector<bool> nicPort_;
    std::unique_ptr<SpinUnit> spin_;
    /** Network's fault injector, nullptr on fault-free runs. */
    fault::FaultInjector *faults_ = nullptr;
    /** See markDead(). */
    bool dead_ = false;

    /** See rng(). */
    mutable Random rng_;

    /** Per-outport round-robin pointer over input ports (SA stage 2). */
    std::vector<PortId> outRr_;

    /** Per-port wired links (nullptr for NIC/unwired ports), cached at
     *  construction -- the network's link table is fixed by then. */
    std::vector<Link *> outLink_;
    std::vector<Link *> inLink_;

    /** Slot in the network's contiguous per-router load array (see
     *  bufferedFlits()); Network::step() scans that array directly so
     *  skipping idle routers touches no Router object. */
    int *load_;

    /** Per-vnet slice of *load_ (see bufferedFlitsInVnet()). Updated
     *  wherever load_ is, via vcVnet(). */
    std::vector<std::uint64_t> vnetLoad_;
    int vcsPerVnet_ = 1;
    VnetId vcVnet(VcId vcid) const { return vcid / vcsPerVnet_; }

    /**
     * Per-inport bitmask of VCs holding at least one flit (bit v set
     * <=> vc(v) non-empty). Lets route compute and switch allocation
     * visit occupied VCs only instead of scanning the whole VC table
     * every cycle; scan order over the set bits matches the full
     * scan's order, so allocation decisions are unchanged.
     */
    std::vector<std::uint64_t> occupied_;

    // Scratch buffers reused across cycles to avoid allocation churn.
    mutable std::vector<PortId> scratchPorts_;
    mutable std::vector<VcId> scratchVcs_;
    std::vector<LinkFlit> scratchPacket_;

    /** Compute/refresh the route request of one head VC. @return false
     *  when no surviving path to the target exists (caller purges). */
    bool routeVc(PortId inport, VcId vcid);
    /** Retire the complete unroutable packet in (inport, vc): pop its
     *  flits, return credits, account it, drop it. Waits (no-op) until
     *  the whole packet has streamed into the VC. */
    void purgeUnroutable(PortId inport, VcId vcid);
    /** True when @p outport has an idle VC @p pkt may acquire. */
    bool hasIdleAllowedVc(const Packet &pkt, PortId outport) const;
    /** Try to acquire a downstream VC for a routed head. */
    void tryVcAllocation(PortId inport, VcId vcid);
    /** True when (inport,vc) can send a flit right now. Forced inline:
     *  it is the innermost probe of switch allocation. */
    [[gnu::always_inline]] inline bool
    readyToSend(PortId inport, VcId vcid, Cycle now) const;
    /** Move one flit out: pop, credits, link push, hooks. */
    void sendFlit(PortId inport, VcId vcid);
    /** Send one credit upstream for a flit popped from (inport, vc). */
    void creditUpstream(PortId inport, VcId vcid, bool is_free);
};

} // namespace spin

#endif // SPINNOC_ROUTER_ROUTER_HH
