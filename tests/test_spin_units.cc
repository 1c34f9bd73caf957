/**
 * @file
 * Unit tests: SPIN building blocks -- special messages, rotating
 * priority, loop buffer, FSM state names -- and the per-router unit's
 * detection pointer behavior on a live network.
 */

#include <gtest/gtest.h>

#include "core/LoopBuffer.hh"
#include "core/RotatingPriority.hh"
#include "core/SpecialMsg.hh"
#include "core/SpinManager.hh"
#include "core/SpinUnit.hh"
#include "tests/SpinTestUtil.hh"

namespace spin
{
namespace
{

TEST(SpecialMsg, ClassPriorityOrder)
{
    // probe_move > move = kill_move > probe (paper Sec. IV-C1).
    EXPECT_GT(classPriority(SmType::ProbeMove),
              classPriority(SmType::Move));
    EXPECT_EQ(classPriority(SmType::Move), classPriority(SmType::KillMove));
    EXPECT_GT(classPriority(SmType::Move), classPriority(SmType::Probe));
}

TEST(SpecialMsg, ToStringNames)
{
    EXPECT_STREQ(toString(SmType::Probe), "probe");
    EXPECT_STREQ(toString(SmType::KillMove), "kill_move");
    SpecialMsg sm;
    sm.sender = 5;
    sm.path = {1, 2};
    EXPECT_NE(sm.toString().find("R5"), std::string::npos);
}

TEST(RotatingPriority, RotatesRoundRobin)
{
    RotatingPriority rp(4, 100);
    // Epoch 0.
    EXPECT_EQ(rp.priorityOf(0, 0), 0);
    EXPECT_EQ(rp.priorityOf(3, 0), 3);
    // Epoch 1: everyone shifts by one.
    EXPECT_EQ(rp.priorityOf(0, 100), 1);
    EXPECT_EQ(rp.priorityOf(3, 100), 0);
    EXPECT_EQ(rp.fullRotation(), 400u);
}

TEST(RotatingPriority, EveryRouterEventuallyHighest)
{
    RotatingPriority rp(5, 10);
    for (RouterId r = 0; r < 5; ++r) {
        bool was_top = false;
        for (Cycle t = 0; t < rp.fullRotation(); t += 10)
            was_top |= rp.priorityOf(r, t) == 4;
        EXPECT_TRUE(was_top) << "router " << r;
    }
}

TEST(RotatingPriority, DistinctWithinEpoch)
{
    RotatingPriority rp(8, 64);
    std::set<int> prios;
    for (RouterId r = 0; r < 8; ++r)
        prios.insert(rp.priorityOf(r, 1234));
    EXPECT_EQ(prios.size(), 8u);
}

TEST(LoopBuffer, LatchAndClear)
{
    LoopBuffer lb;
    EXPECT_FALSE(lb.valid());
    lb.latch({2, 0, 1}, 6);
    EXPECT_TRUE(lb.valid());
    EXPECT_EQ(lb.loopHops(), 3);
    EXPECT_EQ(lb.loopLatency(), 6u);
    lb.clear();
    EXPECT_FALSE(lb.valid());
    EXPECT_EQ(lb.loopHops(), 0);
}

TEST(LoopBuffer, TableIiSizing)
{
    // Paper Table II: 64-router mesh, radix 5 -> 3 bits/entry, 64
    // entries = 192 bits, under two 128-bit flits.
    EXPECT_EQ(LoopBuffer::sizeBits(5, 64), 192);
    // 1024-node dragonfly: radix 15 -> 4 bits, 256 routers.
    EXPECT_EQ(LoopBuffer::sizeBits(15, 256), 1024);
}

TEST(SpinFsm, StateNames)
{
    EXPECT_STREQ(toString(SpinState::ForwardProgress), "S_Forward_Progress");
    EXPECT_STREQ(toString(InitState::MoveWait), "MoveWait");
}

TEST(SpinFsm, PaperStateExhaustiveOverBothContexts)
{
    // Every initiator state, with and without a recovery initiated
    // elsewhere holding the router frozen, against the Fig. 4a
    // seven-state table from the SpinFsm.hh file comment. Frozen for
    // another router masks everything as S_Frozen. A router frozen for
    // its own recovery (Case II, paper Sec. IV-C2) passes false here
    // and shows its initiator state; RingDeadlock.FrozenStateObservable
    // checks that rule on live units.
    const std::pair<InitState, SpinState> unmasked[] = {
        {InitState::Off, SpinState::Off},
        {InitState::DetectDeadlock, SpinState::DetectDeadlock},
        {InitState::MoveWait, SpinState::Move},
        {InitState::FwdProgress, SpinState::ForwardProgress},
        {InitState::ProbeMoveWait, SpinState::ProbeMove},
        {InitState::KillMoveWait, SpinState::KillMove},
    };
    for (const auto &[init, want] : unmasked) {
        EXPECT_EQ(paperState(init, false), want) << toString(init);
        EXPECT_EQ(paperState(init, true), SpinState::Frozen)
            << toString(init) << " (frozen for another router)";
    }
}

TEST(SpinUnitPointer, OffUntilTrafficArrives)
{
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    SpinManager *mgr = net->spinManager();
    ASSERT_NE(mgr, nullptr);
    EXPECT_EQ(mgr->unit(1).initState(), InitState::Off);
    EXPECT_EQ(mgr->unit(1).paperState(), SpinState::Off);

    // One packet 0 -> 2 passes through router 1.
    net->offerPacket(net->makePacket(0, 2, 0, 5));
    bool saw_dd = false;
    for (int i = 0; i < 40; ++i) {
        net->step();
        saw_dd |= mgr->unit(1).initState() == InitState::DetectDeadlock;
    }
    EXPECT_TRUE(saw_dd);
    // Traffic drained: back to Off.
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_EQ(mgr->unit(1).initState(), InitState::Off);
}

TEST(SpinUnitPointer, LocalPortsNeverPointed)
{
    auto net = ringNetwork(4, DeadlockScheme::Spin);
    SpinManager *mgr = net->spinManager();
    // Saturate the source queue at node 0; packets sit at the local
    // in-port of router 0 but the counter must not watch them.
    for (int k = 0; k < 4; ++k)
        net->offerPacket(net->makePacket(0, 1, 0, 5));
    for (int i = 0; i < 10; ++i)
        net->step();
    const SpinUnit &u = mgr->unit(0);
    if (u.initState() == InitState::DetectDeadlock) {
        EXPECT_NE(u.pointerInport(), RingInfo::kLocal);
    }
}

TEST(SpinUnitPointer, EjectingPacketsNotWatched)
{
    auto net = ringNetwork(4, DeadlockScheme::Spin, 1, 16);
    // Packet 0 -> 1: at router 1 it only wants ejection; probes must
    // never be sent for it even though it transits router 1's in-port.
    net->offerPacket(net->makePacket(0, 1, 0, 5));
    for (int i = 0; i < 80; ++i)
        net->step();
    EXPECT_EQ(net->stats().probesSent, 0u);
}

TEST(SpinManager, NoSpuriousActivityOnIdleNetwork)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin, 1, 8);
    net->run(500);
    const Stats &st = net->stats();
    EXPECT_EQ(st.probesSent, 0u);
    EXPECT_EQ(st.spins, 0u);
}

TEST(SpinManager, CongestionProbesDontSpinWithoutCycle)
{
    // Many-to-one hotspot on a ring segment: heavy congestion, but the
    // dependency graph is a chain (no cycle), so probes may fire and
    // must all die out without a single spin.
    auto net = ringNetwork(8, DeadlockScheme::Spin, 1, 8);
    for (int wave = 0; wave < 6; ++wave) {
        for (NodeId s = 0; s < 4; ++s)
            net->offerPacket(net->makePacket(s, 5, 0, 5));
    }
    net->run(1200);
    drain(*net, 4000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GT(net->stats().probesSent, 0u);
    EXPECT_EQ(net->stats().spins, 0u);
    EXPECT_EQ(net->stats().movesSent, 0u);
}

} // namespace
} // namespace spin
