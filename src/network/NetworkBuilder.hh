/**
 * @file
 * High-level construction API: routing-algorithm factory plus the
 * named configurations of the paper's Table III, so examples, tests and
 * benches assemble networks in a couple of lines.
 */

#ifndef SPINNOC_NETWORK_NETWORKBUILDER_HH
#define SPINNOC_NETWORK_NETWORKBUILDER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/Config.hh"
#include "network/Network.hh"
#include "routing/RoutingAlgorithm.hh"
#include "topology/Topology.hh"

namespace spin
{

/** Instantiate a routing algorithm. */
std::unique_ptr<RoutingAlgorithm> makeRouting(RoutingKind k);

/** Assemble a network over @p topo. */
std::unique_ptr<Network> buildNetwork(std::shared_ptr<const Topology> topo,
                                      NetworkConfig cfg, RoutingKind kind);

/** One Table III row: a named (config, routing) pair. */
struct ConfigPreset
{
    std::string name;
    NetworkConfig cfg;
    RoutingKind kind;

    std::unique_ptr<Network>
    build(std::shared_ptr<const Topology> topo) const
    {
        return buildNetwork(std::move(topo), cfg, kind);
    }
};

/// @name Table III presets
/// @{
/** 3-VC mesh designs: WestFirst, EscapeVC, StaticBubble,
 *  MinAdaptive+SPIN. */
std::vector<ConfigPreset> meshPresets3Vc();
/** 1-VC mesh designs: WestFirst and FAvORS-Min+SPIN. */
std::vector<ConfigPreset> meshPresets1Vc();
/** 3-VC dragonfly designs: UGAL (Dally avoidance) and UGAL+SPIN. */
std::vector<ConfigPreset> dragonflyPresets3Vc();
/** 1-VC dragonfly designs: Minimal+SPIN and FAvORS-NMin+SPIN. */
std::vector<ConfigPreset> dragonflyPresets1Vc();
/// @}

} // namespace spin

#endif // SPINNOC_NETWORK_NETWORKBUILDER_HH
