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
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/ArgParse.hh"
#include "exp/RunOptions.hh"
#include "exp/SweepSpec.hh"
#include "network/NetworkBuilder.hh"
#include "topology/TopologyIo.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;

int
main(int argc, char **argv)
{
    std::string topo_s = "mesh8x8";
    std::string routing_s = toString(RoutingKind::FavorsMin);
    std::string pattern_s = toString(Pattern::UniformRandom);
    std::string scheme_s = toString(DeadlockScheme::Spin);
    NetworkConfig cfg;
    cfg.vcsPerVnet = 1;
    std::uint64_t warmup = 2000, measure = 10000;
    double rate = 0.1;
    exp::RunOptions run;

    std::vector<exp::ArgSpec> specs = {
        exp::argStr("--topology", &topo_s,
                    "a spin_sweep topology name or file:<path> (default "
                    "mesh8x8)",
                    "NAME"),
        exp::argStr("--routing", &routing_s,
                    nameList<RoutingKind>() + " (default " + routing_s + ")",
                    "NAME"),
        exp::argInt("--vcs", &cfg.vcsPerVnet, "VCs per vnet (default 1)"),
        exp::argInt("--vnets", &cfg.vnets, "virtual networks (default 1)"),
        exp::argStr("--scheme", &scheme_s,
                    nameList<DeadlockScheme>() + " (default " + scheme_s +
                        ")",
                    "NAME"),
        exp::argU64("--tdd", &cfg.tDd,
                    "SPIN deadlock-detection timeout in cycles (default "
                    "128)"),
        exp::argStr("--pattern", &pattern_s,
                    nameList<Pattern>() + " (default " + pattern_s + ")",
                    "NAME"),
        exp::argF64("--rate", &rate,
                    "offered load in flits/node/cycle (default 0.1)"),
        exp::argU64("--warmup", &warmup, "warmup cycles (default 2000)"),
        exp::argU64("--measure", &measure,
                    "measured cycles (default 10000)"),
    };
    for (exp::ArgSpec &row : run.flags({"--seed"}))
        specs.push_back(std::move(row));
    const exp::Usage usage =
        exp::parseCommandLine(argc, argv, std::move(specs));

    run.apply(cfg);
    if (!fromString(scheme_s, cfg.scheme))
        usage.fail("unknown scheme '" + scheme_s + "' (" +
                   nameList<DeadlockScheme>() + ")");
    cfg.name = topo_s + "/" + routing_s;

    RoutingKind kind{};
    if (!fromString(routing_s, kind))
        usage.fail("unknown routing '" + routing_s + "'");
    Pattern pattern{};
    if (!patternFromString(pattern_s, pattern))
        usage.fail("unknown pattern '" + pattern_s + "'");
    InjectorConfig icfg;
    icfg.injectionRate = rate;
    icfg.seed = cfg.seed + 1;

    // A configuration the simulator rejects (FatalError) is a usage
    // error like a malformed flag: exit 2, not an abort.
    std::unique_ptr<Network> net;
    std::optional<SyntheticInjector> inj;
    try {
        std::string err;
        std::shared_ptr<const Topology> topo =
            topo_s.rfind("file:", 0) == 0
                ? std::make_shared<Topology>(
                      readTopologyFile(topo_s.substr(5)))
                : exp::makeTopologyByName(topo_s, err);
        if (!topo)
            usage.fail(err);
        net = buildNetwork(topo, cfg, kind);
        inj.emplace(*net, pattern, icfg);
    } catch (const FatalError &e) {
        usage.fail(e.what());
    }

    for (Cycle i = 0; i < warmup; ++i) {
        inj->tick();
        net->step();
    }
    net->beginMeasurement();
    for (Cycle i = 0; i < measure; ++i) {
        inj->tick();
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
