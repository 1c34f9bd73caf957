/**
 * @file
 * Golden verdicts of the ground-truth deadlock oracle on saturated
 * fabrics. The oracle judges which blocked heads can still move, so it
 * must read a head's route options exactly as the router computes them:
 * the current target (intermediate or destination), the candidate
 * ports, the fault filter with its degraded-table fallback, the Static
 * Bubble escape port and the reserved VC. Each configuration below
 * exercises one of those rules; detect() runs at four evenly spaced
 * cycles, and the test pins the member counts, a digest of each member
 * list and a digest of the final Stats JSON.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "deadlock/OracleDetector.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"
#include "router/Router.hh"
#include "traffic/SyntheticInjector.hh"
#include "verify/Digest.hh"

namespace spin
{
namespace
{

std::shared_ptr<const Topology>
topology(const std::string &name)
{
    std::string err;
    auto topo = exp::makeTopologyByName(name, err);
    EXPECT_TRUE(topo) << err;
    return topo;
}

/** Input VCs held by packets on the Static Bubble recovery network. */
int
escapeVcs(const Network &net)
{
    int n = 0;
    for (RouterId r = 0; r < net.numRouters(); ++r) {
        const Router &rt = net.router(r);
        for (PortId p = 0; p < rt.radix(); ++p) {
            for (VcId v = 0; v < net.config().totalVcs(); ++v) {
                const VirtualChannel &vc = rt.input(p).vc(v);
                n += vc.active() && vc.owner() && vc.owner()->onEscape;
            }
        }
    }
    return n;
}

/**
 * Step @p net with a uniform-random injector for @p cycles, running the
 * oracle at each quarter. Returns one line per sample (cycle, member
 * count, member-list digest, VCs held by escape packets, members still
 * in Valiant phase 1) and a last line with the final Stats JSON digest.
 */
std::string
observe(Network &net, double rate, std::uint64_t inj_seed, Cycle cycles)
{
    InjectorConfig icfg;
    icfg.injectionRate = rate;
    icfg.seed = inj_seed;
    SyntheticInjector inj(net, Pattern::UniformRandom, icfg);

    std::string out;
    char line[128];
    for (int q = 1; q <= 4; ++q) {
        while (net.now() < cycles * q / 4) {
            inj.tick();
            net.step();
        }
        const DeadlockReport rep = OracleDetector(net).detect();
        verify::Fnv h;
        int phaseOne = 0;
        for (const DeadlockMember &m : rep.members) {
            h.i64(m.router);
            h.i64(m.inport);
            h.i64(m.vc);
            h.u64(m.packet);
            const Packet &pkt =
                *net.router(m.router).input(m.inport).vc(m.vc).owner();
            phaseOne += pkt.intermediate != kInvalidId && !pkt.phaseTwo;
        }
        std::snprintf(line, sizeof line,
                      "t=%llu members=%zu %016llx escape=%d "
                      "phase1=%d\n",
                      static_cast<unsigned long long>(net.now()),
                      rep.members.size(),
                      static_cast<unsigned long long>(h.value()),
                      escapeVcs(net), phaseOne);
        out += line;
    }
    const std::string stats = net.stats().toJson().dump();
    verify::Fnv h;
    for (const char c : stats)
        h.u64(static_cast<unsigned char>(c));
    std::snprintf(line, sizeof line, "stats=%016llx",
                  static_cast<unsigned long long>(h.value()));
    return out + line;
}

TEST(OracleGolden, VerdictsOnSaturatedFabrics)
{
    // The paper's 1-VC FAvORS mesh past saturation (ROADMAP item 1's
    // cell): a knot of blocked VCs that SPIN recovers only slowly.
    {
        ConfigPreset p = *exp::findPreset("FAvORS_Min_1VC_SPIN");
        p.cfg.seed = exp::deriveCellSeed(0, p.name, Pattern::UniformRandom,
                                         0.26, 1);
        auto net = p.build(topology("mesh8x8"));
        EXPECT_EQ(observe(*net, 0.26, p.cfg.seed + 1, 12000),
                  "t=3000 members=223 da16cb452af7930b escape=0 phase1=0\n"
                  "t=6000 members=223 da16cb452af7930b escape=0 phase1=0\n"
                  "t=9000 members=223 da16cb452af7930b escape=0 phase1=0\n"
                  "t=12000 members=228 8da8a65816377cad escape=0 phase1=0\n"
                  "stats=611e3f23c414cefa");
    }
    // Static Bubble: blocked heads on the recovery network take the
    // west-first escape port and the reserved VC.
    {
        ConfigPreset p = *exp::findPreset("StaticBubble_3VC");
        p.cfg.seed = 7;
        auto net = p.build(topology("mesh8x8"));
        EXPECT_EQ(observe(*net, 0.45, 8, 8000),
                  "t=2000 members=0 cbf29ce484222325 escape=42 phase1=0\n"
                  "t=4000 members=0 cbf29ce484222325 escape=41 phase1=0\n"
                  "t=6000 members=0 cbf29ce484222325 escape=30 phase1=0\n"
                  "t=8000 members=0 cbf29ce484222325 escape=15 phase1=0\n"
                  "stats=3434fb88ea68260c");
        EXPECT_EQ(net->stats().bubbleRecoveries, 3805u);
    }
    // Failed links: candidates are fault-filtered, with a fallback to
    // the degraded minimal tables.
    {
        NetworkConfig cfg;
        cfg.vnets = 1;
        cfg.vcsPerVnet = 2;
        cfg.scheme = DeadlockScheme::None;
        cfg.seed = 3;
        auto net = buildNetwork(topology("mesh8x8"), cfg,
                                RoutingKind::MinimalAdaptive);
        net->attachFaults(
            fault::FaultSchedule::randomLinkFailures(4, 5, 200));
        EXPECT_EQ(observe(*net, 0.35, 4, 8000),
                  "t=2000 members=444 92ec2fde3aa2f088 escape=0 phase1=0\n"
                  "t=4000 members=444 92ec2fde3aa2f088 escape=0 phase1=0\n"
                  "t=6000 members=444 92ec2fde3aa2f088 escape=0 phase1=0\n"
                  "t=8000 members=444 92ec2fde3aa2f088 escape=0 phase1=0\n"
                  "stats=94f76a2bf2b2edc1");
        EXPECT_EQ(net->stats().packetsRerouted, 41u);
    }
    // Valiant detours: heads in phase 1 route toward their intermediate.
    {
        NetworkConfig cfg;
        cfg.vnets = 1;
        cfg.vcsPerVnet = 3;
        cfg.scheme = DeadlockScheme::None;
        cfg.seed = 5;
        auto net = buildNetwork(topology("dragonfly-p2a4h2g9"), cfg,
                                RoutingKind::UgalSpin);
        EXPECT_EQ(observe(*net, 0.6, 6, 6000),
                  "t=1500 members=0 cbf29ce484222325 escape=0 phase1=0\n"
                  "t=3000 members=588 30909af36ddbfa89 escape=0 phase1=78\n"
                  "t=4500 members=588 30909af36ddbfa89 escape=0 phase1=78\n"
                  "t=6000 members=588 30909af36ddbfa89 escape=0 phase1=78\n"
                  "stats=de79fd7e1e7cae50");
    }
}

} // namespace
} // namespace spin
