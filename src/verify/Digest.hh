/**
 * @file
 * Behavioral state digest for the spin_model explicit-state checker.
 *
 * A digest is a 64-bit FNV-1a hash over everything that determines the
 * network's future behavior: VC buffers and their routing requests,
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
 */

#ifndef SPINNOC_VERIFY_DIGEST_HH
#define SPINNOC_VERIFY_DIGEST_HH

#include <cstdint>
#include <vector>

#include "common/Types.hh"

namespace spin
{

class Network;

namespace verify
{

/**
 * Digest @p net under the router renaming @p perm (perm[r] = canonical
 * index of router r; empty = identity). Renamings other than the
 * identity require one NIC per router with node ids equal to router
 * ids (true for every shipped scenario topology).
 */
std::uint64_t digestNetwork(Network &net,
                            const std::vector<int> &perm = {});

/**
 * Canonical digest: the minimum of digestNetwork() over the ring's n
 * rotations when @p ring_symmetry is set (sound only when topology,
 * routing and workload are rotation-equivariant -- the scenario says
 * so), else the identity digest.
 */
std::uint64_t canonicalDigest(Network &net, bool ring_symmetry);

} // namespace verify
} // namespace spin

#endif // SPINNOC_VERIFY_DIGEST_HH
