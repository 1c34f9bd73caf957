/**
 * @file
 * One virtual channel (buffer) at a router input port.
 *
 * Virtual cut-through: a VC holds flits of at most one packet at a time;
 * the buffer is at least one maximum-size packet deep, so a blocked
 * packet always resides entirely in its VC -- the property SPIN's freeze
 * and rotation rely on. Note the VC can be transiently *empty while
 * active* when a packet is cutting through (head already forwarded, body
 * still arriving).
 */

#ifndef SPINNOC_ROUTER_VIRTUALCHANNEL_HH
#define SPINNOC_ROUTER_VIRTUALCHANNEL_HH

#include "common/Packet.hh"
#include "common/Types.hh"
#include "sim/Ring.hh"

namespace spin
{

/**
 * Input-side virtual channel with its routing request state.
 * The *request* is the output port the resident packet currently wants;
 * adaptive algorithms may re-target it every cycle while blocked. The
 * request is what SPIN's probes trace as a buffer dependency.
 */
class VirtualChannel
{
  public:
    /// @name Buffer
    /// @{
    bool empty() const { return buf_.empty(); }
    int size() const { return static_cast<int>(buf_.size()); }
    const Flit &front() const { return buf_.front(); }
    /** Packet owning the VC; nullptr when idle. */
    const PacketPtr &owner() const { return owner_; }
    /** True when every flit of the resident packet is buffered. */
    bool
    packetComplete() const
    {
        return owner_ && size() == owner_->sizeFlits &&
               front().isHead();
    }

    /** Append an arriving flit. */
    void pushFlit(Flit f, Cycle now);
    /** Remove and return the front flit. @pre !empty(). */
    Flit popFlit();
    /// @}

    /// @name State
    /// @{
    /** Active = owned by a packet in flight through this VC. */
    bool active() const { return active_; }
    /** Cycle the VC last became active. */
    Cycle activeSince() const { return activeSince_; }
    /** Cycle of the last forward progress (activation or a flit
     *  departure); drives SPIN's oldest-blocked-first detection. */
    Cycle lastProgress() const { return lastProgress_; }
    void noteProgress(Cycle now) { lastProgress_ = now; }
    /// @}

    /// @name Routing request (valid while a head flit is at the front)
    /// @{
    /** True once the request below is valid for the resident packet. */
    bool routeValid = false;
    /** Output port currently requested; kInvalidId when routeValid
     *  is false. Ejection is a regular (NIC) output port. */
    PortId request = kInvalidId;
    /** Downstream VC granted by VC allocation; kInvalidId until then.
     *  Stays valid for body/tail flits of the packet. */
    VcId grantedVc = kInvalidId;
    /// @}

    /// @name SPIN freeze state
    /// @{
    /** Frozen VCs are excluded from switch allocation. */
    bool frozen = false;
    /** Output port the freeze (move SM) committed the packet to. */
    PortId frozenOutport = kInvalidId;
    /// @}

  private:
    /** Flit buffer; its storage is allocated by the first flit and
     *  retained across packets. */
    Ring<Flit> buf_;
    PacketPtr owner_;
    bool active_ = false;
    Cycle activeSince_ = 0;
    Cycle lastProgress_ = 0;
};

} // namespace spin

#endif // SPINNOC_ROUTER_VIRTUALCHANNEL_HH
