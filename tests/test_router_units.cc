/**
 * @file
 * Unit tests: router building blocks in isolation -- VirtualChannel
 * buffer/state invariants, OutputUnit allocation and credit flow,
 * InputUnit activity scans.
 */

#include <gtest/gtest.h>

#include "common/Logging.hh"
#include "router/InputUnit.hh"
#include "router/OutputUnit.hh"
#include "router/VirtualChannel.hh"

namespace spin
{
namespace
{

PacketPtr
mkPkt(int size, PacketId id = 1)
{
    auto p = std::make_shared<Packet>();
    p->id = id;
    p->sizeFlits = size;
    return p;
}

TEST(VirtualChannelTest, ActivationLifecycle)
{
    VirtualChannel vc;
    EXPECT_FALSE(vc.active());
    auto pkt = mkPkt(2);
    const auto flits = makeFlits(pkt);
    vc.pushFlit(flits[0], 10);
    EXPECT_TRUE(vc.active());
    EXPECT_EQ(vc.activeSince(), 10u);
    EXPECT_EQ(vc.owner(), pkt);
    vc.pushFlit(flits[1], 11);
    EXPECT_TRUE(vc.packetComplete());
    EXPECT_EQ(vc.popFlit().type, FlitType::Head);
    EXPECT_TRUE(vc.active()); // tail still inside
    EXPECT_EQ(vc.popFlit().type, FlitType::Tail);
    EXPECT_FALSE(vc.active()); // tail pop releases
    EXPECT_EQ(vc.owner(), nullptr);
}

TEST(VirtualChannelTest, TailPopClearsRoutingState)
{
    VirtualChannel vc;
    auto pkt = mkPkt(1);
    vc.pushFlit(makeFlits(pkt)[0], 0);
    vc.routeValid = true;
    vc.request = 2;
    vc.grantedVc = 1;
    vc.frozen = true;
    vc.frozenOutport = 2;
    vc.popFlit();
    EXPECT_FALSE(vc.routeValid);
    EXPECT_EQ(vc.request, kInvalidId);
    EXPECT_EQ(vc.grantedVc, kInvalidId);
    EXPECT_FALSE(vc.frozen);
}

TEST(VirtualChannelTest, CutThroughAllowsEmptyActive)
{
    VirtualChannel vc;
    auto pkt = mkPkt(3);
    const auto flits = makeFlits(pkt);
    vc.pushFlit(flits[0], 0);
    vc.popFlit(); // head forwarded before body arrives
    EXPECT_TRUE(vc.active());
    EXPECT_TRUE(vc.empty());
    EXPECT_FALSE(vc.packetComplete());
    vc.pushFlit(flits[1], 2); // body arrives later: same owner, legal
    vc.pushFlit(flits[2], 3);
    vc.popFlit();
    vc.popFlit();
    EXPECT_FALSE(vc.active());
}

TEST(VirtualChannelTest, RejectsInterleavedPackets)
{
    VirtualChannel vc;
    auto p1 = mkPkt(2, 1);
    auto p2 = mkPkt(1, 2);
    vc.pushFlit(makeFlits(p1)[0], 0);
    EXPECT_DEATH(vc.pushFlit(makeFlits(p2)[0], 1), "VCT violation");
}

TEST(VirtualChannelTest, RejectsBodyIntoIdleVc)
{
    VirtualChannel vc;
    auto pkt = mkPkt(3);
    EXPECT_DEATH(vc.pushFlit(makeFlits(pkt)[1], 0), "must be a head");
}

TEST(VirtualChannelTest, ProgressTimestamps)
{
    VirtualChannel vc;
    auto pkt = mkPkt(2);
    const auto flits = makeFlits(pkt);
    vc.pushFlit(flits[0], 5);
    EXPECT_EQ(vc.lastProgress(), 5u);
    vc.noteProgress(9);
    EXPECT_EQ(vc.lastProgress(), 9u);
}

TEST(VirtualChannelTest, FiveFlitPacketsAcrossTheWrapPoint)
{
    // The first 5-flit packet grows the buffer to 8 slots; later ones
    // start wherever the previous tail left the head, so they straddle
    // the end of the slot array. Some packets fill the VC before the
    // head leaves, others cut through with pushes and pops interleaved.
    VirtualChannel vc;
    for (int k = 0; k < 7; ++k) {
        auto pkt = mkPkt(5, 100 + k);
        const auto flits = makeFlits(pkt);
        const Cycle t = 10 * k;
        if (k % 2 == 0) {
            for (int i = 0; i < 5; ++i)
                vc.pushFlit(flits[i], t + i);
            EXPECT_TRUE(vc.packetComplete());
            EXPECT_EQ(vc.size(), 5);
            for (int i = 0; i < 5; ++i) {
                EXPECT_EQ(vc.front().seq, i);
                EXPECT_EQ(vc.popFlit().pkt, pkt);
            }
        } else {
            vc.pushFlit(flits[0], t);
            vc.pushFlit(flits[1], t + 1);
            for (int i = 0; i < 5; ++i) {
                EXPECT_EQ(vc.front().seq, i);
                EXPECT_EQ(vc.popFlit().seq, i);
                if (i + 2 < 5)
                    vc.pushFlit(flits[i + 2], t + 2 + i);
            }
        }
        EXPECT_TRUE(vc.empty());
        EXPECT_FALSE(vc.active());
        EXPECT_EQ(vc.owner(), nullptr);
        // pkt and its 5 flits above; no VC slot keeps a reference.
        EXPECT_EQ(pkt.use_count(), 6);
    }
}

TEST(OutputUnitTest, AllocateOnlyIdle)
{
    OutputUnit ou(0, false, 3, 5);
    const std::vector<VcId> all{0, 1, 2};
    EXPECT_EQ(ou.allocate(all, 11, 0), 0);
    EXPECT_EQ(ou.allocate(all, 12, 0), 1);
    EXPECT_EQ(ou.allocate(all, 13, 0), 2);
    EXPECT_EQ(ou.allocate(all, 14, 0), kInvalidId);
    EXPECT_EQ(ou.ownerOf(1), 12u);
}

TEST(OutputUnitTest, CreditRoundTripFreesVc)
{
    OutputUnit ou(0, false, 1, 2);
    EXPECT_EQ(ou.allocate({0}, 7, 0), 0);
    ou.consumeCredit(0);
    ou.consumeCredit(0);
    EXPECT_EQ(ou.credits(0), 0);
    ou.onCredit(0, false, 5);
    EXPECT_FALSE(ou.isIdle(0));
    ou.onCredit(0, true, 6); // tail credit: free again
    EXPECT_TRUE(ou.isIdle(0));
    EXPECT_EQ(ou.credits(0), 2);
    EXPECT_EQ(ou.ownerOf(0), 0u);
}

TEST(OutputUnitTest, NicPortsAreBottomless)
{
    OutputUnit ou(4, true, 3, 5);
    EXPECT_TRUE(ou.isIdle(0));
    EXPECT_GT(ou.credits(2), 1000000);
    EXPECT_TRUE(ou.hasIdleVcIn(0, 2));
    ou.consumeCredit(0); // no-op
    EXPECT_GT(ou.credits(0), 1000000);
    EXPECT_EQ(ou.occupancy(), 0);
}

TEST(OutputUnitTest, OccupancyCountsBufferedFlits)
{
    OutputUnit ou(0, false, 2, 5);
    EXPECT_EQ(ou.occupancy(), 0);
    ou.allocate({0}, 1, 0);
    ou.consumeCredit(0);
    ou.consumeCredit(0);
    ou.allocate({1}, 2, 0);
    ou.consumeCredit(1);
    EXPECT_EQ(ou.occupancy(), 3);
    ou.onCredit(0, false, 1);
    EXPECT_EQ(ou.occupancy(), 2);
}

TEST(OutputUnitTest, MinActiveTimeSemantics)
{
    OutputUnit ou(0, false, 2, 5);
    EXPECT_EQ(ou.minActiveTime(0, 1, 100), 0u); // idle VC exists
    ou.allocate({0}, 1, 40);
    EXPECT_EQ(ou.minActiveTime(0, 0, 100), 60u);
    EXPECT_EQ(ou.minActiveTime(0, 1, 100), 0u); // vc1 still idle
    ou.allocate({1}, 2, 90);
    EXPECT_EQ(ou.minActiveTime(0, 1, 100), 10u); // min of 60 and 10
}

TEST(OutputUnitTest, ForceAllocateSeizesBusyVc)
{
    OutputUnit ou(0, false, 1, 5);
    ou.allocate({0}, 1, 0);
    ou.forceAllocate(0, 42, 7);
    EXPECT_EQ(ou.ownerOf(0), 42u);
    EXPECT_FALSE(ou.isIdle(0));
    EXPECT_EQ(ou.activeSince(0), 7u);
}

TEST(InputUnitTest, ActivityScans)
{
    InputUnit iu(1, false, 4);
    EXPECT_FALSE(iu.allVcsActive());
    auto pkt = mkPkt(1);
    for (VcId v = 0; v < 4; ++v)
        iu.vc(v).pushFlit(makeFlits(mkPkt(1, v + 1))[0], 0);
    EXPECT_TRUE(iu.allVcsActive());
    iu.vc(2).popFlit();
    EXPECT_FALSE(iu.allVcsActive());
    EXPECT_TRUE(iu.allVcsActive(0, 1));  // vnet 0 range still active
    EXPECT_FALSE(iu.allVcsActive(2, 3)); // vnet 1 range has a free VC
}

TEST(InputUnitTest, FromNicFlag)
{
    InputUnit local(4, true, 2);
    InputUnit transit(0, false, 2);
    EXPECT_TRUE(local.fromNic());
    EXPECT_FALSE(transit.fromNic());
}

} // namespace
} // namespace spin
