/**
 * @file
 * Ablation: sensitivity of SPIN to its two tunables.
 *
 *  1. t_DD (deadlock-detection timeout): detection latency trades
 *     against false probes. Measured as ring-deadlock resolution time
 *     and as mesh throughput at a deadlock-prone load.
 *  2. probeMoveDelay (settling time before the post-spin re-check):
 *     too small and every probe_move dies on unsettled packets
 *     (forcing a kill + full re-detection), too large and multi-spin
 *     deadlocks resolve slowly.
 *
 * The paper fixes t_DD = 128 and leaves SM scheduling open; this bench
 * documents why those are reasonable choices in this implementation.
 */

#include "bench/BenchUtil.hh"
#include "topology/Mesh.hh"
#include "topology/Ring.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;
using namespace spin::bench;

namespace
{

/** Clockwise ring routing (same construction as the test suite). */
class Clockwise : public RoutingAlgorithm
{
  public:
    std::string name() const override { return "cw-ring"; }
    void
    candidates(const Packet &, const Router &, RouterId,
               std::vector<PortId> &out) const override
    {
        out.assign(1, RingInfo::kCw);
    }
};

Cycle
ringRecoveryTime(Cycle t_dd, Cycle probe_move_delay, const Options &opt)
{
    auto topo = std::make_shared<Topology>(makeRing(8));
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    cfg.tDd = t_dd;
    cfg.probeMoveDelay = probe_move_delay;
    opt.apply(cfg);
    Network net(topo, cfg, std::make_unique<Clockwise>());
    for (NodeId i = 0; i < 8; ++i)
        net.offerPacket(net.makePacket(i, (i + 3) % 8, 0, 5));
    const Cycle start = net.now();
    while (net.packetsInFlight() > 0 && net.now() - start < 100000)
        net.step();
    return net.now() - start;
}

double
meshThroughput(Cycle t_dd, Cycle measure, const Options &opt)
{
    auto topo = std::make_shared<Topology>(makeMesh(8, 8));
    NetworkConfig cfg;
    cfg.vnets = 3;
    cfg.vcsPerVnet = 1;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    cfg.tDd = t_dd;
    opt.apply(cfg);
    auto net = buildNetwork(topo, cfg, RoutingKind::FavorsMin);
    InjectorConfig icfg;
    icfg.injectionRate = 0.25; // around the 1-VC knee: deadlock-prone
    SyntheticInjector inj(*net, Pattern::BitReverse, icfg);
    for (Cycle i = 0; i < measure / 2; ++i) {
        inj.tick();
        net->step();
    }
    net->beginMeasurement();
    for (Cycle i = 0; i < measure; ++i) {
        inj.tick();
        net->step();
    }
    return net->stats().throughput(net->numNodes(), net->now());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = Options::parse(
        argc, argv,
        {"--fast", "--seed", "--threads", "--reliability", "--json"});
    const Cycle measure = opt.fast ? 3000 : 10000;

    BenchReporter report("ablation_spin_params", opt);
    obs::JsonValue tdd_rows = obs::JsonValue::array();
    obs::JsonValue delay_rows = obs::JsonValue::array();

    std::printf("=== Ablation 1: t_DD ===\n");
    std::printf("%8s %26s %28s\n", "t_DD", "8-ring recovery (cycles)",
                "mesh thru @0.25 bit-reverse");
    for (const Cycle t_dd : {16, 32, 64, 128, 256}) {
        const Cycle rec = ringRecoveryTime(t_dd, 8, opt);
        const double thr = meshThroughput(t_dd, measure, opt);
        std::printf("%8llu %26llu %28.3f\n",
                    static_cast<unsigned long long>(t_dd),
                    static_cast<unsigned long long>(rec), thr);
        obs::JsonValue row = obs::JsonValue::object();
        row.set("tDd", obs::JsonValue(t_dd));
        row.set("ringRecoveryCycles", obs::JsonValue(rec));
        row.set("meshThroughput", obs::JsonValue(thr));
        tdd_rows.push(std::move(row));
    }
    std::printf("\nSmaller t_DD resolves faster but fires more probes "
                "under plain congestion;\nthe paper's 128 is the "
                "conservative end of the flat region.\n");

    std::printf("\n=== Ablation 2: probeMoveDelay (t_DD = 32) ===\n");
    std::printf("%8s %26s\n", "delay", "8-ring recovery (cycles)");
    for (const Cycle d : {1, 4, 8, 16, 32}) {
        const Cycle rec = ringRecoveryTime(32, d, opt);
        std::printf("%8llu %26llu\n",
                    static_cast<unsigned long long>(d),
                    static_cast<unsigned long long>(rec));
        obs::JsonValue row = obs::JsonValue::object();
        row.set("probeMoveDelay", obs::JsonValue(d));
        row.set("ringRecoveryCycles", obs::JsonValue(rec));
        delay_rows.push(std::move(row));
    }
    std::printf("\nBelow ~packet-size cycles the probe_move outruns the "
                "rotated packets and\ndies, forcing kill_move plus a "
                "fresh t_DD round per extra spin.\n");
    report.add("tDdSweep", std::move(tdd_rows));
    report.add("probeMoveDelaySweep", std::move(delay_rows));
    return report.writeIfRequested(opt) ? 0 : 1;
}
