/**
 * @file
 * Unit tests: common module (types, RNG, packets, config, ring and
 * delay line).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/Config.hh"
#include "common/Logging.hh"
#include "common/Packet.hh"
#include "common/Random.hh"
#include "sim/Clock.hh"
#include "sim/DelayLine.hh"
#include "sim/Ring.hh"

namespace spin
{
namespace
{

/** Items of @p dl arrived by @p now, oldest first. */
std::vector<int>
drainAll(DelayLine<int> &dl, Cycle now)
{
    std::vector<int> out;
    dl.drainInto(now, [&](int v) { out.push_back(v); });
    return out;
}

/** Pending items of @p dl as (arrival, item), in visiting order. */
std::vector<std::pair<Cycle, int>>
pending(const DelayLine<int> &dl)
{
    std::vector<std::pair<Cycle, int>> out;
    dl.forEach([&](Cycle at, int v) { out.emplace_back(at, v); });
    return out;
}

TEST(FlitType, HeadTailPredicates)
{
    EXPECT_TRUE(isHeadFlit(FlitType::Head));
    EXPECT_TRUE(isHeadFlit(FlitType::HeadTail));
    EXPECT_FALSE(isHeadFlit(FlitType::Body));
    EXPECT_FALSE(isHeadFlit(FlitType::Tail));
    EXPECT_TRUE(isTailFlit(FlitType::Tail));
    EXPECT_TRUE(isTailFlit(FlitType::HeadTail));
    EXPECT_FALSE(isTailFlit(FlitType::Head));
    EXPECT_FALSE(isTailFlit(FlitType::Body));
}

TEST(Random, Deterministic)
{
    Random a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Random, BelowStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Random, BelowCoversRange)
{
    Random r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, RangeInclusive)
{
    Random r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo |= v == -2;
        hi |= v == 2;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Random, ChanceExtremes)
{
    Random r(1);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Random, UniformInUnitInterval)
{
    Random r(5);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000, 0.5, 0.05);
}

TEST(Packet, MakeFlitsSingle)
{
    auto pkt = std::make_shared<Packet>();
    pkt->sizeFlits = 1;
    const auto flits = makeFlits(pkt);
    ASSERT_EQ(flits.size(), 1u);
    EXPECT_EQ(flits[0].type, FlitType::HeadTail);
    EXPECT_EQ(flits[0].seq, 0);
}

TEST(Packet, MakeFlitsMulti)
{
    auto pkt = std::make_shared<Packet>();
    pkt->sizeFlits = 5;
    const auto flits = makeFlits(pkt);
    ASSERT_EQ(flits.size(), 5u);
    EXPECT_EQ(flits[0].type, FlitType::Head);
    EXPECT_EQ(flits[1].type, FlitType::Body);
    EXPECT_EQ(flits[3].type, FlitType::Body);
    EXPECT_EQ(flits[4].type, FlitType::Tail);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(flits[i].seq, i);
        EXPECT_EQ(flits[i].pkt, pkt);
    }
}

TEST(Packet, LatencyMath)
{
    Packet p;
    p.createCycle = 10;
    p.injectCycle = 15;
    p.ejectCycle = 42;
    EXPECT_EQ(p.latency(), 32u);
    EXPECT_EQ(p.networkLatency(), 27u);
}

TEST(Config, ValidatesVctDepth)
{
    NetworkConfig cfg;
    cfg.vcDepth = 3;
    cfg.maxPacketSize = 5;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidatesStaticBubbleVcs)
{
    NetworkConfig cfg;
    cfg.scheme = DeadlockScheme::StaticBubble;
    cfg.vcsPerVnet = 1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.vcsPerVnet = 2;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidatesVcsPerPort)
{
    // Occupancy bitmasks hold 64 VCs per port.
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 64;
    EXPECT_NO_THROW(cfg.validate());
    cfg.vcsPerVnet = 65;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.vnets = 13;
    cfg.vcsPerVnet = 5;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, TotalVcs)
{
    NetworkConfig cfg;
    cfg.vnets = 3;
    cfg.vcsPerVnet = 2;
    EXPECT_EQ(cfg.totalVcs(), 6);
}

TEST(Clock, TicksMonotonically)
{
    Clock c;
    EXPECT_EQ(c.now(), 0u);
    c.tick();
    c.tick();
    EXPECT_EQ(c.now(), 2u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

TEST(DelayLine, InOrderDelivery)
{
    DelayLine<int> dl;
    dl.push(5, 1);
    dl.push(5, 2);
    dl.push(7, 3);
    EXPECT_TRUE(drainAll(dl, 4).empty());
    const auto at5 = drainAll(dl, 5);
    ASSERT_EQ(at5.size(), 2u);
    EXPECT_EQ(at5[0], 1);
    EXPECT_EQ(at5[1], 2);
    const auto at7 = drainAll(dl, 10);
    ASSERT_EQ(at7.size(), 1u);
    EXPECT_EQ(at7[0], 3);
    EXPECT_TRUE(dl.empty());
}

TEST(DelayLine, OutOfOrderPushSorts)
{
    DelayLine<int> dl;
    dl.push(9, 1);
    dl.push(4, 2); // earlier arrival pushed later
    dl.push(6, 3);
    const auto all = drainAll(dl, 20);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], 2);
    EXPECT_EQ(all[1], 3);
    EXPECT_EQ(all[2], 1);
}

TEST(Ring, AllocatesOnFirstPushAndDoubles)
{
    Ring<int> r;
    EXPECT_EQ(r.capacity(), 0u);
    r.push_back(1);
    EXPECT_EQ(r.capacity(), 4u);
    for (int i = 2; i <= 5; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 8u);
    for (int i = 1; i <= 5; ++i)
        EXPECT_EQ(r.pop_front(), i);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 8u); // kept across drains
}

TEST(Ring, PopReleasesTheSlotsReference)
{
    Ring<std::shared_ptr<int>> r;
    auto p = std::make_shared<int>(7);
    r.push_back(p);
    EXPECT_EQ(p.use_count(), 2);
    r.pop_front();
    EXPECT_EQ(p.use_count(), 1);

    DelayLine<std::shared_ptr<int>> dl;
    dl.push(3, p);
    dl.drainInto(3, [](std::shared_ptr<int> &) {});
    EXPECT_EQ(p.use_count(), 1);
}

TEST(DelayLine, GrowsWhileWrapped)
{
    // Capacity 4: drain two of three, so the next pushes wrap the head
    // around the slot array; the fifth pending item forces a growth.
    DelayLine<int> dl;
    dl.push(1, 10);
    dl.push(2, 11);
    dl.push(3, 12);
    EXPECT_EQ(drainAll(dl, 2), (std::vector<int>{10, 11}));
    for (int i = 0; i < 6; ++i)
        dl.push(4 + i, 13 + i);
    EXPECT_EQ(dl.size(), 7u);
    EXPECT_EQ(drainAll(dl, 5), (std::vector<int>{12, 13, 14}));
    for (int i = 0; i < 6; ++i)
        dl.push(10 + i, 19 + i);
    EXPECT_EQ(drainAll(dl, 100),
              (std::vector<int>{15, 16, 17, 18, 19, 20, 21, 22, 23, 24}));
    EXPECT_TRUE(dl.empty());
}

TEST(DelayLine, OutOfOrderInsertAcrossWrap)
{
    // Head at slot 3 of 4 and the pending items straddle the wrap; the
    // early push must land between them.
    DelayLine<int> dl;
    for (int i = 0; i < 3; ++i)
        dl.push(i, i);
    EXPECT_EQ(drainAll(dl, 2).size(), 3u);
    dl.push(10, 1);
    dl.push(20, 2);
    dl.push(30, 3);
    dl.push(15, 4); // crosses the wrap point going back
    EXPECT_EQ(pending(dl),
              (std::vector<std::pair<Cycle, int>>{
                  {10, 1}, {15, 4}, {20, 2}, {30, 3}}));
    dl.push(5, 5); // new front, shifts every item
    EXPECT_EQ(drainAll(dl, 100), (std::vector<int>{5, 1, 4, 2, 3}));
}

TEST(DelayLine, EqualArrivalsKeepPushOrder)
{
    DelayLine<int> dl;
    dl.push(8, 1);
    dl.push(8, 2);
    dl.push(4, 3);
    dl.push(8, 4);
    dl.push(4, 5); // behind the earlier 4, ahead of every 8
    dl.push(6, 6);
    EXPECT_EQ(drainAll(dl, 100), (std::vector<int>{3, 5, 6, 1, 2, 4}));
}

TEST(DelayLine, ForEachVisitsInDrainOrder)
{
    DelayLine<int> dl;
    dl.push(1, 0);
    dl.push(2, 0);
    EXPECT_EQ(drainAll(dl, 2).size(), 2u); // head off slot 0
    dl.push(9, 1);
    dl.push(3, 2);
    dl.push(7, 3);
    dl.push(3, 4);
    dl.push(12, 5);
    const auto seen = pending(dl);
    ASSERT_EQ(seen.size(), 5u);
    std::vector<int> order;
    for (const auto &[at, v] : seen)
        order.push_back(v);
    EXPECT_EQ(order, drainAll(dl, 100));
    EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1, 5}));
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(SPIN_FATAL("boom ", 42), FatalError);
}

} // namespace
} // namespace spin
