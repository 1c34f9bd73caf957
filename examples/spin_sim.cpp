/**
 * @file
 * General-purpose simulation driver (in the spirit of BookSim's CLI):
 * pick a topology, routing algorithm, deadlock scheme, traffic pattern
 * and load on the command line, get the standard metrics back.
 *
 *   $ ./spin_sim --topology mesh8x8 --routing favors-min --vcs 1 \
 *                --scheme spin --pattern transpose --rate 0.3 \
 *                --warmup 2000 --measure 10000
 *
 * Topologies: any spin_sweep topology name (mesh<X>x<Y>,
 * torus<X>x<Y>, ring<N>, dragonfly for the paper's 1024-node instance,
 * dragonfly-p<P>a<A>h<H>g<G>), or file:<path> (TopologyIo format).
 */

#include <cstdio>
#include <string>

#include "exp/SweepSpec.hh"
#include "network/NetworkBuilder.hh"
#include "topology/TopologyIo.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;

int
main(int argc, char **argv)
{
    std::string topo_s = "mesh8x8", routing_s = "favors-min";
    std::string pattern_s = "uniform-random", scheme_s = "spin";
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1;
    double rate = 0.1;
    Cycle warmup = 2000, measure = 10000;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                SPIN_FATAL(a, " needs a value");
            return argv[++i];
        };
        if (a == "--topology") topo_s = next();
        else if (a == "--routing") routing_s = next();
        else if (a == "--pattern") pattern_s = next();
        else if (a == "--scheme") scheme_s = next();
        else if (a == "--vcs") cfg.vcsPerVnet = std::stoi(next());
        else if (a == "--vnets") cfg.vnets = std::stoi(next());
        else if (a == "--rate") rate = std::stod(next());
        else if (a == "--warmup") warmup = std::stoull(next());
        else if (a == "--measure") measure = std::stoull(next());
        else if (a == "--tdd") cfg.tDd = std::stoull(next());
        else if (a == "--seed") cfg.seed = std::stoull(next());
        else {
            std::fprintf(stderr, "unknown flag %s (see file header)\n",
                         a.c_str());
            return 2;
        }
    }
    if (!schemeFromString(scheme_s, cfg.scheme))
        SPIN_FATAL("unknown scheme '", scheme_s,
                   "' (spin|static-bubble|none)");
    cfg.name = topo_s + "/" + routing_s;

    std::string err;
    std::shared_ptr<const Topology> topo =
        topo_s.rfind("file:", 0) == 0
            ? std::make_shared<Topology>(readTopologyFile(topo_s.substr(5)))
            : exp::makeTopologyByName(topo_s, err);
    if (!topo)
        SPIN_FATAL(err);
    RoutingKind kind{};
    if (!exp::routingKindFromString(routing_s, kind))
        SPIN_FATAL("unknown routing '", routing_s, "' (try favors-min, "
                   "west-first, escape-vc, ugal-dally, ...)");
    Pattern pattern{};
    if (!exp::patternFromString(pattern_s, pattern))
        SPIN_FATAL("unknown pattern '", pattern_s, "'");
    auto net = buildNetwork(topo, cfg, kind);
    InjectorConfig icfg;
    icfg.injectionRate = rate;
    icfg.seed = cfg.seed + 1;
    SyntheticInjector inj(*net, pattern, icfg);

    for (Cycle i = 0; i < warmup; ++i) {
        inj.tick();
        net->step();
    }
    net->beginMeasurement();
    for (Cycle i = 0; i < measure; ++i) {
        inj.tick();
        net->step();
    }

    const Stats &st = net->stats();
    const LinkUsage u = net->linkUsage();
    std::printf("%s | %s | %d vnets x %d VCs | %s | %s @ %.3f "
                "flits/node/cycle\n", topo_s.c_str(), routing_s.c_str(),
                cfg.vnets, cfg.vcsPerVnet, scheme_s.c_str(),
                pattern_s.c_str(), rate);
    std::printf("  latency    : avg %.2f  p50 %.0f  p99 %.0f  max %llu "
                "cycles\n", st.avgLatency(), st.latencyPercentile(0.5),
                st.latencyPercentile(0.99),
                static_cast<unsigned long long>(st.maxLatency));
    std::printf("  throughput : %.4f flits/node/cycle (offered %.4f)\n",
                st.throughput(net->numNodes(), net->now()), rate);
    std::printf("  hops       : %.2f avg\n", st.avgHops());
    std::printf("  links      : %.1f%% flits, %.1f%% SMs, %.1f%% idle\n",
                100 * u.frac(u.flitCycles),
                100 * (u.frac(u.probeCycles) + u.frac(u.moveCycles)),
                100 * u.frac(u.idleCycles));
    std::printf("  spin       : %llu spins (%llu false+), %llu probes "
                "(%llu returned)\n",
                static_cast<unsigned long long>(st.spins),
                static_cast<unsigned long long>(st.falsePositiveSpins),
                static_cast<unsigned long long>(st.probesSent),
                static_cast<unsigned long long>(st.probesReturned));
    return 0;
}
