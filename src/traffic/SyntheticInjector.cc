#include "traffic/SyntheticInjector.hh"

#include <cmath>

#include "common/Logging.hh"
#include "network/Network.hh"

namespace spin
{

SyntheticInjector::SyntheticInjector(Network &net, Pattern pattern,
                                     const InjectorConfig &cfg)
    : net_(net), pattern_(pattern, net.topo()), cfg_(cfg), rng_(cfg.seed)
{
    if (cfg_.controlFraction < 0.0 || cfg_.controlFraction > 1.0)
        SPIN_FATAL("control fraction must be in [0, 1]");
    if (cfg_.dataSize > net.config().maxPacketSize)
        SPIN_FATAL("data packets larger than maxPacketSize");
    if (net.config().vnets >= 3)
        dataVnet_ = 2;
    recomputeProb();
}

void
SyntheticInjector::recomputeProb()
{
    if (!std::isfinite(cfg_.injectionRate) || cfg_.injectionRate < 0.0) {
        SPIN_FATAL("injection rate must be a finite number >= 0, got ",
                   cfg_.injectionRate);
    }
    const double avg_flits =
        cfg_.controlFraction * cfg_.controlSize +
        (1.0 - cfg_.controlFraction) * cfg_.dataSize;
    packetProb_ = cfg_.injectionRate / avg_flits;
    if (packetProb_ > 1.0) {
        SPIN_WARN("injection rate ", cfg_.injectionRate,
                  " exceeds 1 packet/node/cycle; clamping");
        packetProb_ = 1.0;
    }
}

void
SyntheticInjector::setRate(double flits_per_node_per_cycle)
{
    cfg_.injectionRate = flits_per_node_per_cycle;
    recomputeProb();
}

void
SyntheticInjector::tick()
{
    const int n = net_.numNodes();
    for (NodeId src = 0; src < n; ++src) {
        if (!rng_.chance(packetProb_))
            continue;
        const bool control = rng_.chance(cfg_.controlFraction);
        const NodeId dst = pattern_.dest(src, rng_);
        auto pkt = net_.makePacket(src, dst,
                                   control ? controlVnet_ : dataVnet_,
                                   control ? cfg_.controlSize
                                           : cfg_.dataSize);
        net_.offerPacket(pkt);
    }
}

} // namespace spin
