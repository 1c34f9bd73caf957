/**
 * @file
 * Network configuration record.
 *
 * A NetworkConfig fully describes the router microarchitecture and the
 * deadlock-freedom machinery of one simulated network; the topology and
 * routing algorithm are supplied separately when the Network is built.
 * Table III of the paper is expressed as a set of these records (see
 * network/NetworkBuilder.hh).
 */

#ifndef SPINNOC_COMMON_CONFIG_HH
#define SPINNOC_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/Types.hh"

namespace spin
{

/** Which deadlock-freedom machinery is compiled into the network. */
enum class DeadlockScheme : std::uint8_t
{
    None,         //!< rely on the routing algorithm alone (may deadlock)
    Spin,         //!< the paper's SPIN recovery framework
    StaticBubble, //!< reserved-VC timeout recovery baseline
};

std::string toString(DeadlockScheme s);
/** Parse a scheme name as printed by toString(DeadlockScheme). */
bool schemeFromString(const std::string &text, DeadlockScheme &out);

/**
 * End-to-end reliability layer knobs (docs/FAULTS.md). Off by default:
 * with enabled == false every hook is a null check and behavior is
 * bit-identical to the pre-reliability simulator, which keeps existing
 * sweep baselines and resume fingerprints byte-stable.
 */
struct ReliabilityConfig
{
    /** Master switch for link-level retry + NIC retransmission. */
    bool enabled = false;
    /** Link-level retry bound: corrupted transmissions are re-sent up
     *  to this many times before the flit is delivered poisoned and
     *  recovery escalates to the end-to-end layer. */
    int maxLinkRetries = 3;
    /** Base ack timeout in cycles; retransmission k waits
     *  ackTimeout << k (exponential backoff), timed on the simulated
     *  clock. */
    Cycle ackTimeout = 512;
    /** End-to-end retransmission cap; exhausting it retires the packet
     *  as abandoned, counted apart from packets lost to faults. */
    int maxRetransmits = 5;
    /** Livelock watchdog: an unacked packet older than this raises a
     *  one-shot watchdog alarm with a forensics dump of the NIC's
     *  retransmit state ("recovering" vs "stuck"). */
    Cycle watchdogBudget = 100000;
};

/** Router / network microarchitecture parameters. */
struct NetworkConfig
{
    /** Human-readable configuration name (Table III row). */
    std::string name = "default";

    /// @name Datapath
    /// @{
    /** Number of virtual networks (message classes). */
    int vnets = 1;
    /** Virtual channels per vnet per input port. */
    int vcsPerVnet = 3;
    /** VC buffer depth in flits; must be >= maxPacketSize (VCT). */
    int vcDepth = 5;
    /** Largest packet the traffic layer may create, in flits. */
    int maxPacketSize = 5;
    /// @}

    /// @name SPIN framework (used when scheme == Spin)
    /// @{
    /** Deadlock-detection timeout t_DD in cycles (paper default: 128). */
    Cycle tDd = 128;
    /** Rotating-priority epoch is epochMultiplier * tDd (paper: 4). */
    int epochMultiplier = 4;
    /**
     * Maximum probe path length in hops; 0 selects
     * min(total transit VC count, 4 * numRouters). The transit-VC
     * count is the true upper bound on an elementary wait-for cycle
     * (every hop of a loop occupies a distinct transit VC; folded
     * loops revisit routers, so router count alone is not a bound);
     * the 4N term keeps pathological many-VC networks from letting
     * probes wander quasi-unboundedly.
     */
    int maxProbeHops = 0;
    /**
     * Settling delay, in cycles after a spin completes, before the
     * initiator launches the probe_move re-check, so rotated packets can
     * land and recompute routes (implementation choice; the paper leaves
     * SM scheduling open).
     */
    Cycle probeMoveDelay = 8;
    /// @}

    /// @name Static Bubble baseline (used when scheme == StaticBubble)
    /// @{
    /** Timeout before the reserved VC is unlocked for recovery. */
    Cycle bubbleTimeout = 128;
    /// @}

    /** Deadlock-freedom machinery. */
    DeadlockScheme scheme = DeadlockScheme::Spin;

    /** End-to-end reliability layer (link retry + NIC retransmission). */
    ReliabilityConfig reliability;

    /** Master RNG seed. */
    std::uint64_t seed = 1;

    /**
     * Host worker threads stepping this network (the deterministic
     * sharded step loop, docs/SCALING.md). Purely a host-side
     * execution knob: results -- stats, metrics streams, traces -- are
     * bit-identical for any value. Clamped to the router count at
     * network construction.
     */
    int threads = 1;

    /** Total VCs per input port. */
    int totalVcs() const { return vnets * vcsPerVnet; }

    /** Throw FatalError when the record is inconsistent. */
    void validate() const;
};

} // namespace spin

#endif // SPINNOC_COMMON_CONFIG_HH
