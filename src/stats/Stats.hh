/**
 * @file
 * Statistics engine: traffic counters with warmup-reset semantics plus
 * the SPIN event counters the paper's evaluation section reports
 * (probes, moves, spins, false positives -- Fig. 8b and Fig. 9).
 *
 * Every counter is one row of SPIN_STATS_COUNTERS below. The fields,
 * reset(), mergeFrom(), toJson() and the counters the metrics stream
 * publishes (obs/Metrics.*) are all generated from that table, so a new
 * counter is one new row.
 */

#ifndef SPINNOC_STATS_STATS_HH
#define SPINNOC_STATS_STATS_HH

#include <cstdint>
#include <vector>

#include "common/Packet.hh"
#include "common/Types.hh"
#include "obs/Json.hh"

/**
 * The counter table, in toJson() order:
 *
 *   X(field, "json.path", merge, reset, metric)
 *
 * - field: the public std::uint64_t member of Stats;
 * - "json.path": where toJson() puts it (dotted groups nest); a
 *   published counter keeps the same name in the metrics stream;
 * - merge: Sum (mergeFrom adds) or Max;
 * - reset: Window (reset() zeroes it) or Keep (structural fault state:
 *   how much of the fabric is gone describes the network, not the
 *   window, so post-warmup reports still name the damage);
 * - metric: Pub (each metrics window publishes its delta) or Priv.
 */
#define SPIN_STATS_COUNTERS(X)                                                \
    /* Traffic */                                                             \
    X(packetsCreated, "traffic.packetsCreated", Sum, Window, Priv)            \
    X(packetsInjected, "traffic.packetsInjected", Sum, Window, Pub)           \
    X(packetsEjected, "traffic.packetsEjected", Sum, Window, Pub)             \
    X(flitsCreated, "traffic.flitsCreated", Sum, Window, Priv)                \
    X(flitsInjected, "traffic.flitsInjected", Sum, Window, Pub)               \
    X(flitsEjected, "traffic.flitsEjected", Sum, Window, Pub)                 \
    X(latencySum, "traffic.latencySum", Sum, Window, Pub)                     \
    X(netLatencySum, "traffic.netLatencySum", Sum, Window, Priv)              \
    X(hopsSum, "traffic.hopsSum", Sum, Window, Pub)                           \
    X(maxLatency, "traffic.maxLatency", Max, Window, Priv)                    \
    X(spinsOfEjected, "traffic.spinsOfEjected", Sum, Window, Priv)            \
    /* SPIN events */                                                         \
    X(probesSent, "spin.probesSent", Sum, Window, Pub)                        \
    X(probesForked, "spin.probesForked", Sum, Window, Pub)                    \
    X(probesDropped, "spin.probesDropped", Sum, Window, Pub)                  \
    X(probesReturned, "spin.probesReturned", Sum, Window, Pub)                \
    /* Probe drop reasons: the rotating-priority filter, a free VC at */      \
    /* the in-port, only ejection/no requests, the path cap exceeded, */      \
    /* and an own probe arriving in the wrong state. */                       \
    X(probeDropPriority, "spin.probeDropReasons.priority", Sum, Window, Priv) \
    X(probeDropInactive, "spin.probeDropReasons.inactive", Sum, Window, Priv) \
    X(probeDropNoDep, "spin.probeDropReasons.noDep", Sum, Window, Priv)       \
    X(probeDropHops, "spin.probeDropReasons.hops", Sum, Window, Priv)         \
    X(probeDropStale, "spin.probeDropReasons.stale", Sum, Window, Priv)       \
    X(movesSent, "spin.movesSent", Sum, Window, Pub)                          \
    X(movesDropped, "spin.movesDropped", Sum, Window, Priv)                   \
    X(movesReturned, "spin.movesReturned", Sum, Window, Priv)                 \
    X(probeMovesSent, "spin.probeMovesSent", Sum, Window, Pub)                \
    X(probeMovesDropped, "spin.probeMovesDropped", Sum, Window, Priv)         \
    X(probeMovesReturned, "spin.probeMovesReturned", Sum, Window, Priv)       \
    X(killMovesSent, "spin.killMovesSent", Sum, Window, Pub)                  \
    X(smContentionDrops, "spin.smContentionDrops", Sum, Window, Priv)         \
    /* Completed synchronized rotations (one per loop per rotation), */       \
    /* those counted as false positives (DESIGN.md Sec. 1.3), transfers */    \
    /* the defensive safety fixpoint cancelled, and packets moved one */      \
    /* hop by rotations. */                                                   \
    X(spins, "spin.spins", Sum, Window, Pub)                                  \
    X(falsePositiveSpins, "spin.falsePositiveSpins", Sum, Window, Pub)        \
    X(spinsCancelled, "spin.spinsCancelled", Sum, Window, Pub)                \
    X(packetsRotated, "spin.packetsRotated", Sum, Window, Pub)                \
    /* Baseline recovery: Static Bubble reserved-VC grants. */                \
    X(bubbleRecoveries, "baseline.bubbleRecoveries", Sum, Window, Pub)        \
    /* Fault injection (src/fault): permanent link and router failures */     \
    /* applied, transient (corrupt/drop) events armed, packets purged */      \
    /* with no surviving path to their destination, packets rerouted */       \
    /* over the degraded minimal tables, packets and flits lost at */         \
    /* dead routers, ejected packets carrying a corruption mark, and */       \
    /* ejected packets the destination NIC discarded (drop fault). */         \
    X(linksFailed, "faults.linksFailed", Sum, Keep, Pub)                      \
    X(routersFailed, "faults.routersFailed", Sum, Keep, Pub)                  \
    X(transientFaults, "faults.transientFaults", Sum, Window, Pub)            \
    X(packetsUnroutable, "faults.packetsUnroutable", Sum, Window, Pub)        \
    X(packetsRerouted, "faults.packetsRerouted", Sum, Window, Pub)            \
    X(packetsLostToFaults, "faults.packetsLostToFaults", Sum, Window, Pub)    \
    X(flitsLostToFaults, "faults.flitsLostToFaults", Sum, Window, Priv)       \
    X(packetsCorrupted, "faults.packetsCorrupted", Sum, Window, Pub)          \
    X(packetsDroppedAtNic, "faults.packetsDroppedAtNic", Sum, Window, Pub)    \
    /* End-to-end reliability (docs/FAULTS.md): corrupted transmissions */    \
    /* detected at the receiving link end, link-level retries that */         \
    /* recovered a flit, timeout-driven retransmissions, duplicates */        \
    /* suppressed at the destination, delivered packets that needed */        \
    /* either, packets given up after maxRetransmits, and alarms of */        \
    /* the livelock watchdog (a packet alive past watchdogBudget). */         \
    X(crcFails, "reliability.crcFails", Sum, Window, Pub)                     \
    X(linkRetries, "reliability.linkRetries", Sum, Window, Pub)               \
    X(retransmits, "reliability.retransmits", Sum, Window, Pub)               \
    X(dupDrops, "reliability.dupDrops", Sum, Window, Pub)                     \
    X(recoveredPackets, "reliability.recoveredPackets", Sum, Window, Pub)     \
    X(packetsAbandoned, "reliability.packetsAbandoned", Sum, Window, Pub)     \
    X(watchdogAlarms, "reliability.watchdogAlarms", Sum, Window, Pub)

namespace spin
{

/// @name Counter-table column values (see SPIN_STATS_COUNTERS)
/// @{
enum class StatMerge : std::uint8_t { Sum, Max };
enum class StatReset : std::uint8_t { Window, Keep };
enum class StatMetric : std::uint8_t { Pub, Priv };
/// @}

/** See file comment. All counters cover the current measurement window
 *  (since the last reset()) unless their table row says Keep. */
class Stats
{
  public:
#define SPIN_STATS_FIELD(field, path, merge, reset, metric)               \
    std::uint64_t field = 0;
    SPIN_STATS_COUNTERS(SPIN_STATS_FIELD)
#undef SPIN_STATS_FIELD

    /** log2-bucketed end-to-end latency histogram. */
    std::vector<std::uint64_t> latencyHist;

    /** Start of the current measurement window. */
    Cycle windowStart = 0;

    /** Record an ejected packet. */
    void onEject(const Packet &pkt);

    /** Zero every Window counter and the histogram, and open a new
     *  window at @p now. */
    void reset(Cycle now);

    /**
     * Fold @p o into this record: each counter merges as its table row
     * says, histogram buckets add, windowStart is untouched. Every
     * field is commutative under merge, which is what lets the sharded
     * step loop stage per-thread Stats and commit them in any grouping
     * with bit-identical results (docs/SCALING.md).
     */
    void mergeFrom(const Stats &o);

    /// @name Derived metrics
    /// @{
    /**
     * Latency percentile estimated from the log2 histogram (exact
     * bucket, geometric interpolation within it). p in (0, 1].
     */
    double latencyPercentile(double p) const;
    double avgLatency() const;
    double avgNetLatency() const;
    double avgHops() const;
    /** Received throughput in flits/node/cycle over the window. */
    double throughput(int num_nodes, Cycle now) const;
    /// @}

    /**
     * Machine-readable export: every counter at its table path, the raw
     * latency histogram (traffic.latencyHist), the derived averages and
     * windowStart, as an ordered JSON object. Round-trips through
     * obs::JsonValue::parse exactly for counters below 2^53 (all of
     * them, in practice).
     */
    obs::JsonValue toJson() const;
};

/** One row of SPIN_STATS_COUNTERS as data, for code that walks it
 *  (mergeFrom() expands the macro instead, to stay straight-line). */
struct StatsCounter
{
    std::uint64_t Stats::*field;
    const char *path;
    StatReset reset;
    StatMetric metric;
};

#define SPIN_STATS_ROW(field, path, merge, reset, metric)                 \
    StatsCounter{&Stats::field, path, StatReset::reset, StatMetric::metric},
/** The counter table, in row order. */
inline constexpr StatsCounter kStatsCounters[] = {
    SPIN_STATS_COUNTERS(SPIN_STATS_ROW)};
#undef SPIN_STATS_ROW

} // namespace spin

#endif // SPINNOC_STATS_STATS_HH
