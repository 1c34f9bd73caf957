/**
 * @file
 * Corner-case tests for the SPIN protocol machinery itself: the
 * figure-"8" folded loop (paper Fig. 5b), overlapping recoveries
 * (Fig. 5a), kill_move cancellation, vnet isolation of probes, the
 * defensive rotation fixpoint, and the SM contention ordering.
 */

#include <gtest/gtest.h>

#include "core/SpinManager.hh"
#include "deadlock/Invariants.hh"
#include "deadlock/OracleDetector.hh"
#include "tests/SpinTestUtil.hh"
#include "topology/Mesh.hh"
#include "topology/Torus.hh"
#include "traffic/SyntheticInjector.hh"

namespace spin
{
namespace
{

/**
 * Routing driven by a per-(router, destRouter) next-port table the test
 * supplies -- lets tests wire arbitrary dependency shapes (folded
 * loops, shared loops) deterministically.
 */
class TableRouting : public RoutingAlgorithm
{
  public:
    using Key = std::pair<RouterId, RouterId>;

    std::string name() const override { return "table"; }

    void
    set(RouterId at, RouterId dest, PortId port)
    {
        table_[{at, dest}] = port;
    }

    void
    candidates(const Packet &pkt, const Router &r, RouterId target,
               std::vector<PortId> &out) const override
    {
        out.clear();
        const auto it = table_.find({r.id(), target});
        if (it != table_.end()) {
            out.push_back(it->second);
            return;
        }
        // Fallback: any minimal port.
        const PortSet ports = net_->topo().minimalPorts(r.id(), target);
        out.push_back(ports.front());
        (void)pkt;
    }

  private:
    std::map<Key, PortId> table_;
};

NetworkConfig
oneVcSpin(Cycle t_dd = 32)
{
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    cfg.tDd = t_dd;
    return cfg;
}

TEST(SpinCorners, FigureEightFoldedLoop)
{
    // 3x3 mesh. Two 4-router loops sharing router 4 (the center):
    //   loop A: 0 -E-> 1 -N-> 4 -W-> 3 -S-> 0
    //   loop B: 4 -E-> 5 -N-> 8 -W-> 7 -S-> 4
    // One packet per loop edge, each wanting to continue 2 edges
    // around its loop: a folded "8" through the center.
    auto topo = std::make_shared<Topology>(makeMesh(3, 3));
    auto routing = std::make_unique<TableRouting>();
    TableRouting *tr = routing.get();
    // Loop A cycle: edges 0->1->4->3->0 (E,N,W,S).
    // Loop B cycle: edges 4->5->8->7->4 (E,N,W,S).
    const RouterId loopA[4] = {0, 1, 4, 3};
    const RouterId loopB[4] = {4, 5, 8, 7};
    for (int i = 0; i < 4; ++i) {
        // Packet on edge i targets the router two edges ahead; the
        // table routes along the loop.
        for (int k = 0; k < 4; ++k) {
            const RouterId at = loopA[k];
            const RouterId nxt = loopA[(k + 1) % 4];
            const PortId port =
                nxt == at + 1 ? MeshInfo::kEast
                : nxt == at - 1 ? MeshInfo::kWest
                : nxt == at + 3 ? MeshInfo::kNorth
                : MeshInfo::kSouth;
            for (int d = 0; d < 4; ++d)
                tr->set(at, loopA[d], port);
        }
        for (int k = 0; k < 4; ++k) {
            const RouterId at = loopB[k];
            const RouterId nxt = loopB[(k + 1) % 4];
            const PortId port =
                nxt == at + 1 ? MeshInfo::kEast
                : nxt == at - 1 ? MeshInfo::kWest
                : nxt == at + 3 ? MeshInfo::kNorth
                : MeshInfo::kSouth;
            for (int d = 0; d < 4; ++d) {
                if (at != 4 || (loopB[d] != loopA[0] &&
                                loopB[d] != loopA[1]))
                    tr->set(at, loopB[d], port);
            }
        }
    }
    // Fix the table at router 4 for loop A destinations (overwritten
    // above): loop A traffic at 4 goes West.
    for (int d = 0; d < 4; ++d)
        tr->set(4, loopA[d], MeshInfo::kWest);

    Network net(topo, oneVcSpin(), std::move(routing));

    // One 5-flit packet per loop edge, destination two loop edges on.
    for (int k = 0; k < 4; ++k) {
        net.offerPacket(net.makePacket(loopA[k], loopA[(k + 2) % 4], 0,
                                       5));
        if (loopB[k] != 4) // center NIC would collide with loop A src
            net.offerPacket(net.makePacket(loopB[k], loopB[(k + 2) % 4],
                                           0, 5));
    }

    Cycle start = net.now();
    while (net.packetsInFlight() > 0 && net.now() - start < 20000)
        net.step();
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_FALSE(OracleDetector(net).detect().deadlocked);
}

TEST(SpinCorners, TwoDisjointLoopsResolveInParallel)
{
    // Two independent 4-rings in one network (via a 4x4 torus's rows):
    // use the plain ring test twice in one larger ring instead -- an
    // 8-ring carrying two separate 4-cycles cannot exist, so place two
    // deadlock workloads far apart on a 12-ring.
    auto net = ringNetwork(12, DeadlockScheme::Spin, 1, 24);
    // Workload A on routers 0..3, workload B on routers 6..9: each
    // node sends 2 hops clockwise, filling two disjoint arcs.
    for (NodeId i = 0; i < 4; ++i)
        net->offerPacket(net->makePacket(i, (i + 2) % 12, 0, 5));
    for (NodeId i = 6; i < 10; ++i)
        net->offerPacket(net->makePacket(i, (i + 2) % 12, 0, 5));
    drain(*net, 20000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_EQ(net->stats().packetsEjected, 8u);
}

TEST(SpinCorners, ProbesNeverCrossVnets)
{
    // Fill vnet 0 with the ring deadlock while vnet 1 stays idle; with
    // vnet-scoped probes the recovery must proceed even though vnet 1
    // VCs at every port are idle.
    auto topo = std::make_shared<Topology>(makeRing(4));
    NetworkConfig cfg = oneVcSpin();
    cfg.vnets = 2;
    auto net = std::make_unique<Network>(
        topo, cfg, std::make_unique<ClockwiseRing>());
    for (NodeId i = 0; i < 4; ++i)
        net->offerPacket(net->makePacket(i, (i + 2) % 4, 0, 5));
    drain(*net, 4000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GE(net->stats().spins, 1u);
}

TEST(SpinCorners, KillMoveReleasesAbortedRecovery)
{
    // Force a move to fail: after the probe returns, eject the packet
    // the initiator probed... hard to stage externally, so instead run
    // a congested-but-live workload where kills are frequent and
    // verify no VC stays frozen afterward.
    auto net = ringNetwork(8, DeadlockScheme::Spin, 1, 8);
    Random rng(5);
    for (int i = 0; i < 4000; ++i) {
        if (i % 4 == 0) {
            const NodeId s = static_cast<NodeId>(rng.below(8));
            net->offerPacket(net->makePacket(s, (s + 3) % 8, 0, 5));
        }
        net->step();
    }
    drain(*net, 30000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    for (RouterId r = 0; r < 8; ++r) {
        for (PortId p = 0; p < 3; ++p) {
            EXPECT_FALSE(net->router(r).input(p).vc(0).frozen)
                << "router " << r << " port " << p;
        }
        EXPECT_FALSE(net->spinManager()->unit(r).victim().active);
    }
}

TEST(SpinCorners, TorusHighLoadNoFrozenLeaks)
{
    auto topo = std::make_shared<Topology>(makeTorus(4, 4));
    auto net = buildNetwork(topo, oneVcSpin(64),
                            RoutingKind::MinimalAdaptive);
    InjectorConfig icfg;
    icfg.injectionRate = 0.5;
    icfg.seed = 77;
    SyntheticInjector inj(*net, Pattern::Tornado, icfg);
    for (int i = 0; i < 5000; ++i) {
        inj.tick();
        net->step();
    }
    drain(*net, 40000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    // No victim context may survive drainage.
    for (RouterId r = 0; r < 16; ++r)
        EXPECT_FALSE(net->spinManager()->unit(r).victim().active);
}

TEST(SpinCorners, StatsDropReasonsSumToDropped)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin, 1, 16);
    for (NodeId i = 0; i < 6; ++i)
        net->offerPacket(net->makePacket(i, (i + 2) % 6, 0, 5));
    drain(*net, 6000);
    const Stats &st = net->stats();
    EXPECT_EQ(st.probesDropped,
              st.probeDropPriority + st.probeDropInactive +
              st.probeDropNoDep + st.probeDropHops + st.probeDropStale);
}

TEST(SpinCorners, SmLinkContentionKeepsHigherPriorityClass)
{
    // White-box: schedule a probe and a move onto the same link in the
    // same cycle; the move class must win and the probe must be
    // counted as a contention drop.
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    SpinManager *mgr = net->spinManager();

    SpecialMsg probe;
    probe.type = SmType::Probe;
    probe.sender = 0;
    probe.sendCycle = 1;
    probe.path = {RingInfo::kCw};

    SpecialMsg kill; // same class priority as move
    kill.type = SmType::KillMove;
    kill.sender = 1;
    kill.sendCycle = 1;
    kill.path = {RingInfo::kCw, RingInfo::kCw};
    kill.pathIdx = 1;

    mgr->scheduleSend(1, SmSend{probe, 0, RingInfo::kCw});
    mgr->scheduleSend(1, SmSend{kill, 0, RingInfo::kCw});
    net->run(3);
    EXPECT_EQ(net->stats().smContentionDrops, 1u);
    // The surviving kill traversed the link: counted as a move-class
    // use on link 0->1.
    const Link *l = net->outLinkOf(0, RingInfo::kCw);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->moveUses(), 1u);
    EXPECT_EQ(l->probeUses(), 0u);
}

// ---------------------------------------------------------------------
// Counter-probe collision corners. These interleavings were found by
// exhaustively exploring ring4 with spin_model (see docs/VERIFICATION.md)
// and are pinned here as deterministic regressions: symmetric detection
// launches counter-probes that collide in flight, and the rotating
// priority filter must serialize them to a single committed spin.
// ---------------------------------------------------------------------

TEST(SpinCorners, CounterProbesSerializedByPriority)
{
    // All four routers block at once on the symmetric ring, so their
    // detection timers expire together and four counter-probes chase
    // each other around the loop. Exactly one may win per rotation.
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    injectRingDeadlock(*net);
    drain(*net, 4000);
    const Stats &st = net->stats();
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GT(st.probesSent, 1u);          // the collision happened
    EXPECT_GT(st.probeDropPriority, 0u);   // losers filtered in transit
    EXPECT_GT(st.spins, 0u);
    EXPECT_TRUE(auditNetwork(*net).clean());
}

TEST(SpinCorners, DelayedCounterProbeStillSerializes)
{
    // spin_model interleaving: hold the first probe launch back one
    // cycle, desynchronizing the otherwise symmetric collision. The
    // survivor changes but the outcome must not: one committed spin,
    // full drain, no frozen leak.
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    SpinManager *mgr = net->spinManager();
    ASSERT_NE(mgr, nullptr);
    int delays = 0;
    mgr->setSmHook([&](const SmSend &send, Cycle) {
        if (send.sm.type == SmType::Probe && delays == 0) {
            ++delays;
            return SmAction::Delay;
        }
        return SmAction::Deliver;
    });
    injectRingDeadlock(*net);
    drain(*net, 4000);
    EXPECT_EQ(delays, 1);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GT(net->stats().spins, 0u);
    EXPECT_TRUE(auditNetwork(*net).clean());
}

TEST(SpinCorners, DroppedProbesForceRetryUntilRecovery)
{
    // Lossy collision: the first six probe launches vanish outright
    // (model action Drop). Detection must re-arm, re-probe on the next
    // t_DD expiry, and eventually commit a spin anyway.
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    SpinManager *mgr = net->spinManager();
    ASSERT_NE(mgr, nullptr);
    int drops = 0;
    mgr->setSmHook([&](const SmSend &send, Cycle) {
        if (send.sm.type == SmType::Probe && drops < 6) {
            ++drops;
            return SmAction::Drop;
        }
        return SmAction::Deliver;
    });
    injectRingDeadlock(*net);
    drain(*net, 8000);
    EXPECT_EQ(drops, 6);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GT(net->stats().spins, 0u);
    EXPECT_TRUE(auditNetwork(*net).clean());
}

TEST(SpinCorners, LateOwnProbeReturnIsDroppedAsStale)
{
    // White-box pin of the guard the model checker leans on: a
    // router's own probe arriving while its recovery is already in
    // flight (MoveWait here) must be classified stale and dropped, not
    // double-accepted (paper Sec. IV-C2, last question). A control
    // network runs the same deadlock without the extra probe.
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    auto control = ringNetwork(4, DeadlockScheme::Spin);
    SpinManager *mgr = net->spinManager();
    ASSERT_NE(mgr, nullptr);
    injectRingDeadlock(*net);
    injectRingDeadlock(*control);
    RouterId initiator = kInvalidId;
    while (initiator == kInvalidId && net->now() < 1000) {
        net->step();
        control->step();
        for (RouterId r = 0; r < net->numRouters(); ++r) {
            if (mgr->unit(r).initState() == InitState::MoveWait)
                initiator = r;
        }
    }
    ASSERT_NE(initiator, kInvalidId);

    // The initiator's own probe, arriving on its acceptance port from
    // the upstream router.
    SpecialMsg probe;
    probe.type = SmType::Probe;
    probe.sender = initiator;
    probe.sendCycle = net->now();
    probe.path = {RingInfo::kCw};
    const RouterId upstream = (initiator + 3) % 4;
    mgr->scheduleSend(net->now() + 1,
                      SmSend{probe, upstream, RingInfo::kCw});
    net->run(5);
    control->run(5);
    EXPECT_EQ(net->stats().probeDropStale,
              control->stats().probeDropStale + 1);
    EXPECT_EQ(net->stats().probesDropped,
              control->stats().probesDropped + 1);
}

TEST(SpinCorners, RecoveryLatencyIsBoundedOnSmallRing)
{
    // Detection + probe + move + 2*LL: with tDD=32 and LL=4, the whole
    // recovery must complete well within 4 * tDD of formation.
    auto net = ringNetwork(4, DeadlockScheme::Spin, 1, 32);
    injectRingDeadlock(*net);
    const Cycle spent = drain(*net, 4000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_LT(spent, 4u * 32u + 100u);
}

} // namespace
} // namespace spin
