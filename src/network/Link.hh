/**
 * @file
 * One directed physical channel between two routers, with its reverse
 * credit wire. SPIN's special messages share the forward wire with flits
 * at higher priority (Sec. IV-D: "No additional links"); their delay
 * lines live in the SpinManager, but the busy/occupancy accounting that
 * makes flits yield to them lives here.
 */

#ifndef SPINNOC_NETWORK_LINK_HH
#define SPINNOC_NETWORK_LINK_HH

#include <cstdint>

#include "common/Packet.hh"
#include "common/Types.hh"
#include "sim/DelayLine.hh"
#include "topology/Topology.hh"

namespace spin
{

/** A flit in flight, tagged with its downstream VC. */
struct LinkFlit
{
    Flit flit;
    VcId vc = kInvalidId;
};

/** A credit in flight (reverse direction). */
struct CreditMsg
{
    VcId vc = kInvalidId;
    /** Tail credit: the downstream VC is free again. */
    bool isFree = false;
};

/** See file comment. */
class Link
{
  public:
    explicit Link(const LinkSpec &spec) : spec_(spec) {}

    const LinkSpec &spec() const { return spec_; }
    Cycle latency() const { return spec_.latency; }

    /// @name Forward (flit) direction
    /// @{
    /** True when a flit may enter the wire at @p now. */
    bool
    freeForFlit(Cycle now) const
    {
        return smBusyAt_ != now && (!everBusy_ || flitBusyUntil_ < now);
    }

    /** A flit enters the wire at @p now. */
    void
    pushFlit(Cycle now, LinkFlit lf)
    {
        pushFlitDelayed(now, 0, std::move(lf));
    }

    /**
     * A flit enters the wire at @p now but arrives @p extra cycles
     * late -- the link-retry layer charges recovered transmissions this
     * way (docs/FAULTS.md). Arrivals stay in order: a flit never
     * overtakes an earlier, retry-delayed one (the floor below). With
     * extra == 0 the floor is the identity, because normal arrivals on
     * one link already strictly increase (the wire admits one flit per
     * cycle), so the fault-free path is behavior-identical.
     */
    void
    pushFlitDelayed(Cycle now, Cycle extra, LinkFlit lf)
    {
        occupyFlit(now, now);
        Cycle arrival = now + spec_.latency + extra;
        if (everArrived_ && arrival <= lastArrival_)
            arrival = lastArrival_ + 1;
        lastArrival_ = arrival;
        everArrived_ = true;
        flits_.push(arrival, std::move(lf));
    }

    /**
     * SPIN rotation: a whole packet of @p size flits streams onto the
     * wire starting at @p now; flit i arrives at now + latency + i.
     * Consumes the flits (the caller's buffer is scratch).
     */
    void
    pushPacket(Cycle now, std::vector<LinkFlit> &lfs)
    {
        occupyFlit(now, now + lfs.size() - 1);
        Cycle arrival = now + spec_.latency;
        if (everArrived_ && arrival <= lastArrival_)
            arrival = lastArrival_ + 1;
        for (LinkFlit &lf : lfs)
            flits_.push(arrival++, std::move(lf));
        lastArrival_ = arrival - 1;
        everArrived_ = true;
    }

    /** Hand every flit arrived by @p now to @p fn, oldest first. */
    template <typename F>
    void
    drainFlitsInto(Cycle now, F &&fn)
    {
        flits_.drainInto(now, fn);
    }
    /// @}

    /// @name Reverse (credit) direction
    /// @{
    void
    pushCredit(Cycle arrival, const CreditMsg &c)
    {
        credits_.push(arrival, c);
    }

    /** Hand every credit arrived by @p now to @p fn, oldest first. */
    template <typename F>
    void
    drainCreditsInto(Cycle now, F &&fn)
    {
        credits_.drainInto(now, fn);
    }
    /// @}

    /// @name Special-message occupancy (wire shared with flits)
    /// @{
    /** An SM takes the wire at @p now; flits yield. */
    void
    occupySm(Cycle now, LinkUse kind)
    {
        smBusyAt_ = now;
        if (kind == LinkUse::Probe)
            ++probeUses_;
        else
            ++moveUses_;
    }
    /// @}

    /// @name Audit inspection
    /// @{
    /** Flits currently on the wire bound for downstream VC @p vc. */
    int
    inFlightFlits(VcId vc) const
    {
        int n = 0;
        flits_.forEach([&](Cycle, const LinkFlit &lf) {
            n += lf.vc == vc;
        });
        return n;
    }
    /** Credits on the reverse wire for upstream VC @p vc. */
    int
    inFlightCredits(VcId vc) const
    {
        int n = 0;
        credits_.forEach([&](Cycle, const CreditMsg &c) {
            n += c.vc == vc;
        });
        return n;
    }

    /** Visit every in-flight flit as (arrival, LinkFlit); state digests. */
    template <typename F>
    void
    forEachFlit(F &&fn) const
    {
        flits_.forEach(fn);
    }
    /** Visit every in-flight credit as (arrival, CreditMsg). */
    template <typename F>
    void
    forEachCredit(F &&fn) const
    {
        credits_.forEach(fn);
    }
    /** Last cycle a flit may still be entering the wire (digests). */
    Cycle flitBusyUntil() const { return everBusy_ ? flitBusyUntil_ : 0; }
    /** Cycle an SM last claimed the wire; kNeverCycle when never. */
    Cycle smBusyAt() const { return smBusyAt_; }
    /// @}

    /// @name Fault state (mirror of the FaultInjector's bitmap)
    /// @{
    /** Mark the link permanently failed. Gating happens upstream (the
     *  routing filter and SM launch consult the FaultInjector); the
     *  flag here is for introspection and audits. */
    void fail() { failed_ = true; }
    bool failed() const { return failed_; }
    /// @}

    /// @name Utilization counters (Fig. 8b)
    /// @{
    std::uint64_t flitUses() const { return flitUses_; }
    std::uint64_t probeUses() const { return probeUses_; }
    std::uint64_t moveUses() const { return moveUses_; }
    void
    resetUses()
    {
        flitUses_ = probeUses_ = moveUses_ = 0;
    }
    /// @}

  private:
    void
    occupyFlit(Cycle now, Cycle until)
    {
        flitBusyUntil_ = until;
        everBusy_ = true;
        flitUses_ += until - now + 1;
    }

    LinkSpec spec_;
    DelayLine<LinkFlit> flits_;
    DelayLine<CreditMsg> credits_;
    Cycle flitBusyUntil_ = 0;
    bool everBusy_ = false;
    /** Latest scheduled flit arrival (the in-order floor above). */
    Cycle lastArrival_ = 0;
    bool everArrived_ = false;
    Cycle smBusyAt_ = kNeverCycle;
    bool failed_ = false;
    std::uint64_t flitUses_ = 0;
    std::uint64_t probeUses_ = 0;
    std::uint64_t moveUses_ = 0;
};

} // namespace spin

#endif // SPINNOC_NETWORK_LINK_HH
