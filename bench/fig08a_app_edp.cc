/**
 * @file
 * Reproduces Fig. 8(a): network energy-delay product under
 * application-style (PARSEC-substitute) coherence traffic, for
 * MinAdaptive_2VC_SPIN normalized to EscapeVC_3VC.
 *
 * The paper runs PARSEC on gem5 full-system; we substitute a
 * request/response coherence generator over 3 vnets with per-app
 * profiles at ~1/10th of deadlock-onset load (see DESIGN.md Sec. 1.4).
 * Energy is the analytical router power model integrated over runtime;
 * delay is average packet latency.
 *
 * Expected shape: the 2-VC SPIN design needs ~2/3 of the escape
 * design's buffers for the same low-load latency, so its normalized
 * EDP sits well below 1.0 (the paper reports ~18% lower on average).
 */

#include <cmath>

#include <cstdio>

#include "exp/RunOptions.hh"
#include "network/NetworkBuilder.hh"
#include "power/AreaPowerModel.hh"
#include "topology/Mesh.hh"
#include "traffic/CoherenceTraffic.hh"

using namespace spin;

namespace
{

struct EdpResult
{
    double latency = 0.0;
    double power = 0.0;
    double edp = 0.0;
};

EdpResult
runApp(const ConfigPreset &preset,
       const std::shared_ptr<const Topology> &topo,
       const AppProfile &app, Cycle cycles)
{
    auto net = preset.build(topo);
    CoherenceTraffic gen(*net, app);
    for (Cycle i = 0; i < cycles; ++i) {
        gen.tick();
        net->step();
    }
    // Drain outstanding transactions.
    for (Cycle i = 0; i < 20000 && net->packetsInFlight() > 0; ++i) {
        gen.tick();
        net->step();
    }

    // The escape design's 3 VCs already *include* its escape channel
    // (the routing uses VC0 of each vnet as the escape), so its power
    // model carries no extra-VC surcharge -- only SPIN's control-path
    // modules are an explicit extra.
    RouterDesign d;
    d.radix = 5;
    d.vnets = preset.cfg.vnets;
    d.vcsPerVnet = preset.cfg.vcsPerVnet;
    d.vcDepthFlits = preset.cfg.vcDepth;
    d.numRouters = topo->numRouters();
    d.extras = preset.cfg.scheme == DeadlockScheme::Spin
        ? SchemeExtras::Spin
        : SchemeExtras::None;

    EdpResult r;
    r.latency = net->stats().avgLatency();
    r.power = AreaPowerModel::evaluate(d).powerMw * topo->numRouters();
    r.edp = r.power * r.latency; // EDP per packet ~ P * D at equal load
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::RunOptions opt = exp::RunOptions::parse(
        argc, argv, {"--fast", "--seed", "--threads", "--reliability"});
    const Cycle cycles = opt.fast ? 8000 : 30000;
    auto topo = std::make_shared<Topology>(makeMesh(8, 8));

    // The paper's Fig. 8(a) pair: EscapeVC 3VC vs MinAdaptive 2VC SPIN.
    ConfigPreset escape = meshPresets3Vc()[1]; // EscapeVC_3VC
    ConfigPreset spin2{"MinAdaptive_2VC_SPIN", escape.cfg,
                       RoutingKind::MinimalAdaptive};
    spin2.cfg.name = "MinAdaptive_2VC_SPIN";
    spin2.cfg.vcsPerVnet = 2;
    spin2.cfg.scheme = DeadlockScheme::Spin;
    opt.apply(escape.cfg);
    opt.apply(spin2.cfg);

    std::printf("=== Fig. 8a: network EDP on application-style traffic "
                "(normalized to EscapeVC_3VC) ===\n");
    std::printf("%-14s %12s %12s %12s %12s %10s\n", "app",
                "lat(escape)", "lat(spin)", "P(escape)", "P(spin)",
                "EDP ratio");

    double geo = 1.0;
    int n = 0;
    for (const AppProfile &app : parsecLikeProfiles()) {
        const EdpResult e = runApp(escape, topo, app, cycles);
        const EdpResult s = runApp(spin2, topo, app, cycles);
        const double ratio = s.edp / e.edp;
        geo *= ratio;
        ++n;
        std::printf("%-14s %12.2f %12.2f %12.1f %12.1f %10.3f\n",
                    app.name.c_str(), e.latency, s.latency, e.power,
                    s.power, ratio);
    }
    std::printf("\ngeometric-mean EDP ratio (SPIN/escape): %.3f "
                "(paper: ~0.82)\n", std::pow(geo, 1.0 / n));
    return 0;
}
