/**
 * @file
 * Behavioral state digest for the spin_model explicit-state checker.
 *
 * A digest is a 64-bit hash over everything that determines the
 * network's future behavior, one word per field, each folded in with
 * splitmix64 (common/Hash.hh): VC buffers and their routing requests,
 * credit counters, allocation/round-robin pointers, flits and credits
 * on the wires, NIC queues, the SPIN units' FSM snapshots, the SM
 * substrate, the rotating-priority phase and the fault state. All
 * cycle-valued fields are hashed *relative to the current cycle*, so
 * two states reached at different times that behave identically from
 * here on hash equal -- the property visited-state dedup relies on.
 *
 * On vertex-transitive configurations (the ring scenarios) the digest
 * can additionally be canonicalized under the topology's rotation
 * group: the canonical digest is the minimum over all rotations of the
 * digest of the renamed network. Packet identities are normalized to
 * (src, dest, vnet, size) for this to be sound.
 *
 * A SPIN unit's probe-attempt counter is kept modulo 2 * lcm(1..8), so
 * the digest is exact only while no router has more than 8 detection
 * candidates (in-network in-ports x VCs); canonicalDigest() raises a
 * FatalError on a SPIN network that could have more.
 */

#ifndef SPINNOC_VERIFY_DIGEST_HH
#define SPINNOC_VERIFY_DIGEST_HH

#include <cstdint>

namespace spin
{

class Network;

namespace verify
{

/**
 * Canonical digest: the minimum of the digest over the ring's n
 * rotations when @p ring_symmetry is set (sound only when topology,
 * routing and workload are rotation-equivariant -- the scenario says
 * so; it needs one NIC per router with node ids equal to router ids),
 * else the digest under the identity naming.
 */
std::uint64_t canonicalDigest(Network &net, bool ring_symmetry);

} // namespace verify
} // namespace spin

#endif // SPINNOC_VERIFY_DIGEST_HH
