/**
 * @file
 * Reproduces Fig. 3: the minimum injection rate (flits/node/cycle) at
 * which the 64-node mesh (minimal adaptive routing) and the 1024-node
 * dragonfly (UGAL path selection, unrestricted VCs) deadlock at least
 * once, per traffic pattern, with 3 VCs per port and 1-flit packets.
 * Deadlocks are detected by the oracle wait-for-graph; no recovery
 * scheme is active (scheme = None).
 *
 * Expected shape: onset rates sit far above real-application loads
 * (the paper: at least 10x), and tornado/transpose on the mesh do not
 * deadlock at all under minimal routing.
 */

#include <cstdio>

#include "deadlock/OracleDetector.hh"
#include "exp/RunOptions.hh"
#include "network/NetworkBuilder.hh"
#include "topology/Dragonfly.hh"
#include "topology/Mesh.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;
using exp::RunOptions;

namespace
{

/** Run at one rate; report whether a deadlock ever appears. */
bool
deadlocks(const std::shared_ptr<const Topology> &topo, RoutingKind kind,
          Pattern pattern, double rate, Cycle cycles, const RunOptions &opt,
          exp::Recording &rec)
{
    NetworkConfig cfg;
    cfg.vnets = 1; // Fig. 3 uses plain 1-flit synthetic traffic
    cfg.vcsPerVnet = 3;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::None;
    opt.apply(cfg);
    auto net = buildNetwork(topo, cfg, kind);
    char lbl[96];
    std::snprintf(lbl, sizeof(lbl), "onset|%s|%.2f",
                  toString(pattern).c_str(), rate);
    exp::Instruments instruments(*net, opt, lbl);

    InjectorConfig icfg;
    icfg.injectionRate = rate;
    icfg.controlFraction = 1.0; // 1-flit packets only, as in the paper
    SyntheticInjector inj(*net, pattern, icfg);
    OracleDetector oracle(*net);

    bool hit = false;
    for (Cycle i = 0; i < cycles && !hit; ++i) {
        inj.tick();
        net->step();
        if (i % 250 == 0 && oracle.detect().deadlocked)
            hit = true;
    }
    if (!hit)
        hit = oracle.detect().deadlocked;
    instruments.collect(rec);
    return hit;
}

obs::JsonValue
onsetSweep(const char *label, const std::shared_ptr<const Topology> &topo,
           RoutingKind kind, Cycle cycles,
           const std::vector<Pattern> &patterns, const RunOptions &opt,
           exp::Recording &rec)
{
    obs::JsonValue block = obs::JsonValue::object();
    block.set("label", obs::JsonValue(label));
    block.set("windowCycles", obs::JsonValue(cycles));
    obs::JsonValue rows = obs::JsonValue::array();
    std::printf("--- %s (window %llu cycles, 3 VCs, 1-flit packets) "
                "---\n%-16s %s\n", label,
                static_cast<unsigned long long>(cycles), "pattern",
                "min deadlock rate (flits/node/cycle)");
    const std::vector<double> ladder = {0.05, 0.10, 0.15, 0.20, 0.30,
                                        0.45, 0.65, 1.00};
    for (const Pattern pat : patterns) {
        double onset = -1.0;
        for (const double rate : ladder) {
            if (deadlocks(topo, kind, pat, rate, cycles, opt, rec)) {
                onset = rate;
                break;
            }
        }
        if (onset < 0)
            std::printf("%-16s no deadlock up to 1.00\n",
                        toString(pat).c_str());
        else
            std::printf("%-16s %.2f\n", toString(pat).c_str(), onset);
        obs::JsonValue row = obs::JsonValue::object();
        row.set("pattern", obs::JsonValue(toString(pat)));
        row.set("onsetRate", obs::JsonValue(onset));
        rows.push(std::move(row));
    }
    std::printf("\n");
    block.set("rows", std::move(rows));
    return block;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opt = RunOptions::parse(
        argc, argv,
        {"--fast", "--seed", "--threads", "--reliability", "--json",
         "--metrics", "--metrics-interval", "--profile"});
    const Cycle mesh_cycles = opt.fast ? 5000 : 20000;
    const Cycle dfly_cycles = opt.fast ? 2000 : 6000;

    std::printf("=== Fig. 3: minimum injection rate at which the "
                "network deadlocks ===\n\n");

    exp::BenchReporter report("fig03_deadlock_onset", opt);
    obs::JsonValue blocks = obs::JsonValue::array();

    auto mesh = std::make_shared<Topology>(makeMesh(8, 8));
    blocks.push(onsetSweep("8x8 mesh, minimal adaptive", mesh,
                           RoutingKind::MinimalAdaptive, mesh_cycles,
                           {Pattern::UniformRandom, Pattern::BitComplement,
                            Pattern::Transpose, Pattern::Tornado,
                            Pattern::BitReverse, Pattern::Shuffle},
                           opt, report.recording()));

    auto dfly = std::make_shared<Topology>(makePaperDragonfly());
    blocks.push(onsetSweep("1024-node dragonfly, UGAL (unrestricted VCs)",
                           dfly, RoutingKind::UgalSpin, dfly_cycles,
                           {Pattern::UniformRandom, Pattern::BitComplement,
                            Pattern::Tornado, Pattern::Shuffle},
                           opt, report.recording()));
    report.add("onsetSweeps", std::move(blocks));

    std::printf("Reference: real applications load the NoC at roughly "
                "0.01-0.05 flits/node/cycle\n(paper Sec. II-F): onset "
                "rates above are ~10x higher, so deadlocks are rare\n"
                "events and recovery beats avoidance.\n");
    return report.finish() ? 0 : 1;
}
