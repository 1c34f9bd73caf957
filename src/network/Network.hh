/**
 * @file
 * The assembled network: routers, links, NICs, the routing algorithm,
 * the deadlock-freedom machinery, and the per-cycle phase schedule.
 *
 * Phase order within one cycle (see DESIGN.md):
 *   1. wire arrivals (flits, credits) are delivered
 *   2. SPIN special-message phase (arrivals processed, forwards contend
 *      for links and block flits below)
 *   3. SPIN rotation phase (synchronized one-hop movement)
 *   4. Static Bubble recovery grants (when that baseline is active)
 *   5. NIC injection
 *   6. route compute + VC allocation
 *   7. switch allocation + link traversal
 *   8. SPIN FSM timers (expiries schedule SMs for the next cycle)
 *   9. clock tick
 */

#ifndef SPINNOC_NETWORK_NETWORK_HH
#define SPINNOC_NETWORK_NETWORK_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/Config.hh"
#include "common/Packet.hh"
#include "common/Random.hh"
#include "common/Types.hh"
#include "network/Link.hh"
#include "network/Nic.hh"
#include "obs/TraceEvent.hh"
#include "router/Router.hh"
#include "sim/Clock.hh"
#include "stats/Stats.hh"
#include "topology/Topology.hh"

namespace spin
{

namespace obs
{
class Tracer;
class Forensics;
class JsonValue;
class NetworkMetrics;
struct MetricsConfig;
class MetricsSink;
class PhaseProfiler;
} // namespace obs

namespace fault
{
class FaultInjector;
struct FaultSchedule;
} // namespace fault

class RoutingAlgorithm;
class SpinManager;
class StaticBubbleUnit;
class StepExecutor;

/**
 * Per-thread staging for the parallel phases of Network::step(): each
 * worker redirects its cross-shard side effects (statistics, trace
 * events, in-flight retirements) here and the coordinator commits the
 * buffers in shard order at the phase barrier, so merged output is
 * bit-identical for any thread count (docs/SCALING.md).
 */
struct StepShard
{
    /** Counter deltas of this shard's phase; merged via
     *  Stats::mergeFrom, then zeroed. */
    Stats stats;
    /** Raw trace events in shard-local emission order. */
    std::vector<obs::TraceEvent> events;
    /** Packets retired without ejecting (Network::notifyLost). */
    std::uint64_t lost = 0;
};

/** Installed while a worker executes a shard; redirects
 *  Network::stats() and Network::notifyLost() into the shard. */
extern thread_local StepShard *tlsStepShard;

/** Aggregate link-utilization summary (Fig. 8b). */
struct LinkUsage
{
    std::uint64_t flitCycles = 0;
    std::uint64_t probeCycles = 0;
    std::uint64_t moveCycles = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t totalCycles = 0;

    double frac(std::uint64_t c) const
    {
        return totalCycles ? double(c) / totalCycles : 0.0;
    }

    /** The "linkUsage" object of telemetry dumps and sweep cells. */
    obs::JsonValue toJson() const;
};

/** See file comment. */
class Network
{
  public:
    /**
     * Assemble a network.
     *
     * @param topo finalized topology (shared, immutable)
     * @param cfg  microarchitecture + deadlock-scheme parameters
     * @param routing routing algorithm (ownership transferred)
     */
    Network(std::shared_ptr<const Topology> topo, const NetworkConfig &cfg,
            std::unique_ptr<RoutingAlgorithm> routing);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /// @name Simulation control
    /// @{
    /** Advance one cycle. */
    void step();
    /** Advance @p cycles cycles. */
    void run(Cycle cycles);
    Cycle now() const { return clock_.now(); }
    /// @}

    /// @name Component access
    /// @{
    const Topology &topo() const { return *topo_; }
    const NetworkConfig &config() const { return cfg_; }
    int numRouters() const { return topo_->numRouters(); }
    int numNodes() const { return topo_->numNodes(); }
    Router &router(RouterId r) { return *routers_[r]; }
    const Router &router(RouterId r) const { return *routers_[r]; }
    Nic &nic(NodeId n) { return *nics_[n]; }
    RoutingAlgorithm &routing() { return *routing_; }
    const RoutingAlgorithm &routing() const { return *routing_; }
    Random &rng() { return rng_; }
    /** Statistics accumulator. During a parallel phase of the sharded
     *  step loop each worker sees its own staging Stats (committed in
     *  shard order at the barrier); everywhere else this is the master
     *  accumulator. */
    Stats &
    stats()
    {
        StepShard *const sh = tlsStepShard;
        return sh != nullptr ? sh->stats : stats_;
    }
    /** Master accumulator; only meaningful between phases. */
    const Stats &stats() const { return stats_; }
    /** Worker threads driving step(); 1 = serial (clamped to the
     *  router count at construction). Results are bit-identical for
     *  any value (docs/SCALING.md). */
    int threads() const { return threads_; }
    /** SPIN manager; nullptr unless cfg.scheme == Spin. */
    SpinManager *spinManager() { return spinMgr_.get(); }
    /// @}

    /// @name Links
    /// @{
    int numLinks() const { return static_cast<int>(links_.size()); }
    Link &link(int idx) { return links_[idx]; }
    /** Out-link of (r, port); nullptr for NIC / unwired ports. */
    Link *outLinkOf(RouterId r, PortId port);
    const Link *outLinkOf(RouterId r, PortId port) const;
    /** In-link feeding (r, port); nullptr for NIC / unwired ports. */
    Link *inLinkOf(RouterId r, PortId port);
    /** Index of the out-link of (r, port), -1 when unwired. */
    int linkIndexOf(RouterId r, PortId port) const
    {
        return outIdx_[r][port];
    }
    /** Buffered-flit counter slot for router @p r. Routers keep their
     *  count here so step()'s idle-skip scan reads one contiguous
     *  array instead of touching every Router object. Stable address:
     *  sized before any router is constructed. */
    int &routerLoadSlot(RouterId r) { return routerLoad_[r]; }
    /** NIC attached at (r, port). @pre the port is a NIC port. */
    Nic &nicAt(RouterId r, PortId port);
    /// @}

    /// @name Traffic API
    /// @{
    /** Create a packet record with id / destRouter / createCycle set. */
    PacketPtr makePacket(NodeId src, NodeId dest, VnetId vnet,
                         int size_flits);
    /** Hand a packet to its source NIC. */
    void offerPacket(const PacketPtr &pkt);
    /**
     * Clone @p orig as an end-to-end retransmission and offer it to the
     * source NIC: fresh packet id, same flow identity (src, dest, vnet,
     * size, e2eSeq, origId, createCycle), attempt bumped. Serial-phase
     * only (allocates a packet id). Reliability layer, docs/FAULTS.md.
     */
    PacketPtr makeRetransmit(const PacketPtr &orig);
    /** Callback fired when a packet fully ejects (coherence traffic). */
    void setEjectListener(std::function<void(const PacketPtr &)> fn);
    /** Called by NICs on tail ejection. */
    void notifyEjected(const PacketPtr &pkt);
    /** Called when a packet is retired without ejecting (purged as
     *  unroutable or lost to a dead router). Balances offerPacket's
     *  in-flight count so drain loops still terminate under faults. */
    void notifyLost(const PacketPtr &pkt);
    /** Packets currently inside NIC queues or the network. */
    std::uint64_t packetsInFlight() const { return inFlight_; }
    /// @}

    /// @name Measurement helpers
    /// @{
    /** Reset stats and per-link counters; opens a measurement window. */
    void beginMeasurement();
    /** Utilization summary over router-to-router links. */
    LinkUsage linkUsage() const;
    /// @}

    /// @name Observability (src/obs)
    /// @{
    /**
     * Active tracer, nullptr when tracing is disabled. Instrumentation
     * hooks branch on this pointer -- the null fast path is the whole
     * cost of disabled tracing.
     */
    obs::Tracer *trace() { return tracer_.get(); }
    /** Attach (or, with nullptr, detach) a tracer. */
    void setTracer(std::unique_ptr<obs::Tracer> tracer);

    /** Active forensics recorder, nullptr until enableForensics(). */
    obs::Forensics *forensics() { return forensics_.get(); }
    const obs::Forensics *forensics() const { return forensics_.get(); }
    /** Start capturing loop snapshots on probe return / oracle report. */
    obs::Forensics &enableForensics(std::size_t max_records = 64);

    /** Active windowed-metrics publisher, nullptr until enableMetrics(). */
    obs::NetworkMetrics *metrics() { return metrics_.get(); }
    const obs::NetworkMetrics *metrics() const { return metrics_.get(); }
    /** Start windowed metrics publication into @p sink; replaces any
     *  previous publisher (the old one emits its finish record). */
    obs::NetworkMetrics &enableMetrics(const obs::MetricsConfig &cfg,
                                       std::unique_ptr<obs::MetricsSink> sink);

    /** Active self-profiler, nullptr until enableProfiler(). */
    obs::PhaseProfiler *profiler() { return profiler_.get(); }
    const obs::PhaseProfiler *profiler() const { return profiler_.get(); }
    /** Start attributing wall-clock time to step() phases. */
    obs::PhaseProfiler &enableProfiler();

    /** Everything machine-readable in one document: config, cycle,
     *  stats, link usage, forensic snapshots, fault and metrics
     *  summaries. */
    obs::JsonValue telemetryJson() const;
    /** Write telemetryJson() to @p path. @return false on I/O error. */
    bool dumpTelemetry(const std::string &path) const;
    /// @}

    /// @name Fault injection (src/fault)
    /// @{
    /** Attach a fault schedule (validated against the topology);
     *  replaces any previous injector. Call before running. */
    fault::FaultInjector &attachFaults(fault::FaultSchedule schedule);
    /** Active injector, nullptr when the run is fault-free. */
    fault::FaultInjector *faults() { return faults_.get(); }
    const fault::FaultInjector *faults() const { return faults_.get(); }
    /// @}

  private:
    std::shared_ptr<const Topology> topo_;
    NetworkConfig cfg_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    Clock clock_;
    Random rng_;
    Stats stats_;

    std::vector<std::unique_ptr<Router>> routers_;
    /** See routerLoadSlot(). */
    std::vector<int> routerLoad_;
    std::vector<std::unique_ptr<Nic>> nics_;
    /** Flat storage: links are hot (drained every cycle) and fixed
     *  after construction, so they live contiguously. */
    std::vector<Link> links_;
    /** (router, port) -> link index or -1, both directions. */
    std::vector<std::vector<std::int32_t>> outIdx_;
    std::vector<std::vector<std::int32_t>> inIdx_;
    /** (router, port) -> node id for NIC ports, else -1. */
    std::vector<std::vector<NodeId>> nicIdx_;

    std::unique_ptr<SpinManager> spinMgr_;
    std::vector<std::unique_ptr<StaticBubbleUnit>> bubbles_;

    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::Forensics> forensics_;
    std::unique_ptr<fault::FaultInjector> faults_;
    /** Declared after the components its gauges read, so it is
     *  destroyed (emitting its finish record) while they are live. */
    std::unique_ptr<obs::NetworkMetrics> metrics_;
    std::unique_ptr<obs::PhaseProfiler> profiler_;

    std::function<void(const PacketPtr &)> ejectListener_;
    PacketId nextPacketId_ = 1;
    std::uint64_t inFlight_ = 0;
    Cycle usageWindowStart_ = 0;

    /// @name Sharded step loop (docs/SCALING.md)
    /// @{
    /** Run @p fn(s) for every shard: inline when threads_ == 1,
     *  else on the executor with staging installed, followed by an
     *  in-shard-order commit of the staged side effects. */
    void runSharded(const std::function<void(int)> &fn);
    /** Merge every shard's staged stats / trace events / lost count
     *  into the master state, in shard order. */
    void commitShards();
    /** Wire-arrival phase of shard @p s: flit queues of links ending in
     *  the shard, credit queues of links starting in it, NIC arrival
     *  wires of its nodes. */
    void drainWiresShard(int s, Cycle now);

    /** Worker count after clamping to the router count. */
    int threads_ = 1;
    /** Present only when threads_ > 1. */
    std::unique_ptr<StepExecutor> exec_;
    /** Staging buffers, one per shard; empty when threads_ == 1. */
    std::vector<StepShard> shards_;
    /** Router-id shard bounds: shard s owns [shardLo_[s],
     *  shardLo_[s+1]). Contiguous ranges make shard-order commits
     *  reproduce the serial router iteration order. */
    std::vector<RouterId> shardLo_;
    /** Per shard: indices of links whose flit queue the shard drains
     *  (dst router in shard), ordered by (dst router, dst port). */
    std::vector<std::vector<std::int32_t>> shardFlitLinks_;
    /** Per shard: indices of links whose credit queue the shard drains
     *  (src router in shard), ordered by (src router, src port). */
    std::vector<std::vector<std::int32_t>> shardCreditLinks_;
    /** Per shard: its nodes, ordered by (attachment router, node id);
     *  concatenation over shards is the canonical NIC order. */
    std::vector<std::vector<NodeId>> shardNics_;
    /// @}
};

} // namespace spin

#endif // SPINNOC_NETWORK_NETWORK_HH
