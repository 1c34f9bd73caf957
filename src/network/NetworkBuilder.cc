#include "network/NetworkBuilder.hh"

#include "common/Logging.hh"
#include "core/Favors.hh"
#include "routing/DimensionOrder.hh"
#include "routing/EscapeVc.hh"
#include "routing/MinimalAdaptive.hh"
#include "routing/TorusBubble.hh"
#include "routing/Ugal.hh"
#include "routing/WestFirst.hh"

namespace spin
{

std::unique_ptr<RoutingAlgorithm>
makeRouting(RoutingKind k)
{
    switch (k) {
      case RoutingKind::XyDor:
        return std::make_unique<DimensionOrder>();
      case RoutingKind::WestFirst:
        return std::make_unique<WestFirst>();
      case RoutingKind::MinimalAdaptive:
        return std::make_unique<MinimalAdaptive>();
      case RoutingKind::EscapeVc:
        return std::make_unique<EscapeVc>();
      case RoutingKind::TorusBubble:
        return std::make_unique<TorusBubble>();
      case RoutingKind::UgalDally:
        return std::make_unique<Ugal>(true);
      case RoutingKind::UgalSpin:
        return std::make_unique<Ugal>(false);
      case RoutingKind::FavorsMin:
        return std::make_unique<FavorsMinimal>();
      case RoutingKind::FavorsNMin:
        return std::make_unique<FavorsNonMinimal>();
    }
    SPIN_PANIC("unknown routing kind");
}

std::unique_ptr<Network>
buildNetwork(std::shared_ptr<const Topology> topo, NetworkConfig cfg,
             RoutingKind kind)
{
    return std::make_unique<Network>(std::move(topo), cfg,
                                     makeRouting(kind));
}

namespace
{

NetworkConfig
baseCfg(const std::string &name, int vcs_per_vnet, DeadlockScheme scheme)
{
    NetworkConfig cfg;
    cfg.name = name;
    cfg.vnets = 3; // directory protocol: req / fwd / resp
    cfg.vcsPerVnet = vcs_per_vnet;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = scheme;
    return cfg;
}

} // namespace

std::vector<ConfigPreset>
meshPresets3Vc()
{
    return {
        {"WestFirst_3VC",
         baseCfg("WestFirst_3VC", 3, DeadlockScheme::None),
         RoutingKind::WestFirst},
        {"EscapeVC_3VC",
         baseCfg("EscapeVC_3VC", 3, DeadlockScheme::None),
         RoutingKind::EscapeVc},
        {"StaticBubble_3VC",
         baseCfg("StaticBubble_3VC", 3, DeadlockScheme::StaticBubble),
         RoutingKind::MinimalAdaptive},
        {"MinAdaptive_3VC_SPIN",
         baseCfg("MinAdaptive_3VC_SPIN", 3, DeadlockScheme::Spin),
         RoutingKind::MinimalAdaptive},
    };
}

std::vector<ConfigPreset>
meshPresets1Vc()
{
    return {
        {"WestFirst_1VC",
         baseCfg("WestFirst_1VC", 1, DeadlockScheme::None),
         RoutingKind::WestFirst},
        {"FAvORS_Min_1VC_SPIN",
         baseCfg("FAvORS_Min_1VC_SPIN", 1, DeadlockScheme::Spin),
         RoutingKind::FavorsMin},
    };
}

std::vector<ConfigPreset>
dragonflyPresets3Vc()
{
    return {
        {"UGAL_3VC_Dally",
         baseCfg("UGAL_3VC_Dally", 3, DeadlockScheme::None),
         RoutingKind::UgalDally},
        {"UGAL_3VC_SPIN",
         baseCfg("UGAL_3VC_SPIN", 3, DeadlockScheme::Spin),
         RoutingKind::UgalSpin},
    };
}

std::vector<ConfigPreset>
dragonflyPresets1Vc()
{
    return {
        {"Minimal_1VC_SPIN",
         baseCfg("Minimal_1VC_SPIN", 1, DeadlockScheme::Spin),
         RoutingKind::MinimalAdaptive},
        {"FAvORS_NMin_1VC_SPIN",
         baseCfg("FAvORS_NMin_1VC_SPIN", 1, DeadlockScheme::Spin),
         RoutingKind::FavorsNMin},
    };
}

} // namespace spin
