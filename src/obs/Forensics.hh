/**
 * @file
 * Deadlock forensics: when a probe returns (loop confirmed by SPIN
 * itself) or the ground-truth OracleDetector fires, snapshot the
 * wait-for structure -- routers, VCs, blocked packet ids, wait-for
 * edges -- so detection-correctness bugs can be inspected after the
 * fact. Snapshots export as Graphviz DOT and as structured JSON.
 */

#ifndef SPINNOC_OBS_FORENSICS_HH
#define SPINNOC_OBS_FORENSICS_HH

#include <string>
#include <vector>

#include "common/Types.hh"
#include "obs/Json.hh"

namespace spin
{
class Network;
struct SpecialMsg;
struct DeadlockReport;
}

namespace spin::obs
{

/** One wait-for edge: the packet in (router, inport, vc) waits on
 *  outport, whose link leads to (downRouter, downInport). */
struct WaitForEdge
{
    RouterId router = kInvalidId;
    PortId inport = kInvalidId;
    VcId vc = kInvalidId;
    PacketId packet = 0;
    PortId outport = kInvalidId;
    RouterId downRouter = kInvalidId;
    PortId downInport = kInvalidId;
};

/** One captured deadlock (or suspected-deadlock) structure. */
struct LoopSnapshot
{
    Cycle cycle = 0;
    /** "probe" (SPIN loop latch) or "oracle" (ground-truth detector). */
    std::string origin;
    /** Recovery-initiating router; kInvalidId for oracle snapshots. */
    RouterId initiator = kInvalidId;
    VnetId vnet = 0;
    /** Probe round-trip latency; 0 for oracle snapshots. */
    Cycle loopLatency = 0;
    /** Routers on the loop, in traversal order (probe) or sorted
     *  unique order (oracle). */
    std::vector<RouterId> routers;
    std::vector<WaitForEdge> edges;
    /** The injected fault applied most recently before this snapshot
     *  (empty when the run had none). */
    std::string precedingFault;
    Cycle precedingFaultCycle = 0;

    /** Graphviz DOT rendering of the wait-for cycle. */
    std::string toDot() const;
    JsonValue toJson() const;
};

/** See file comment. Owned by the Network; created by enableForensics. */
class Forensics
{
  public:
    explicit Forensics(std::size_t max_records = 64)
        : maxRecords_(max_records)
    {
    }

    /**
     * Capture the loop a returned probe discovered. Called from
     * SpinUnit::onProbeReturned; @p pointer_inport / @p pointer_vc are
     * the initiator's pointed VC (the probe's origin and return port).
     */
    void onProbeReturned(Network &net, RouterId initiator,
                         PortId pointer_inport, VcId pointer_vc,
                         const SpecialMsg &probe, Cycle now);

    /** Capture the wait-for structure of an oracle report. */
    void onOracleReport(Network &net, const DeadlockReport &report,
                        Cycle now);

    /**
     * Record an applied fault (from the FaultInjector). Subsequent
     * snapshots name it, so a detected deadlock points back to the
     * fault that preceded it.
     */
    void noteFault(Cycle cycle, std::string description);

    const std::vector<LoopSnapshot> &records() const { return records_; }
    /** Snapshots discarded after the record cap filled. */
    std::uint64_t dropped() const { return dropped_; }
    void clear();

    JsonValue toJson() const;
    /** Write records_[index] as DOT. @return false on I/O failure. */
    bool writeDot(const std::string &path, std::size_t index) const;

  private:
    std::size_t maxRecords_;
    std::vector<LoopSnapshot> records_;
    std::uint64_t dropped_ = 0;
    std::string lastFaultDesc_;
    Cycle lastFaultCycle_ = 0;

    bool admit();
    void stampFault(LoopSnapshot &snap) const;
};

} // namespace spin::obs

#endif // SPINNOC_OBS_FORENSICS_HH
