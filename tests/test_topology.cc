/**
 * @file
 * Unit tests: topology substrate (mesh, torus, ring, dragonfly,
 * irregular generators and the derived routing tables).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/Logging.hh"
#include "topology/Dragonfly.hh"
#include "topology/Irregular.hh"
#include "topology/Mesh.hh"
#include "topology/Ring.hh"
#include "topology/Torus.hh"

namespace spin
{
namespace
{

TEST(Mesh, Dimensions)
{
    const Topology t = makeMesh(8, 8);
    EXPECT_EQ(t.numRouters(), 64);
    EXPECT_EQ(t.numNodes(), 64);
    ASSERT_TRUE(t.mesh.has_value());
    EXPECT_EQ(t.mesh->sizeX, 8);
    EXPECT_FALSE(t.mesh->wrap);
    // 2 * (2 * 8 * 7) directed channels.
    EXPECT_EQ(static_cast<int>(t.links().size()), 224);
}

TEST(Mesh, BorderPortsUnwired)
{
    const Topology t = makeMesh(4, 4);
    EXPECT_EQ(t.outLink(0, MeshInfo::kWest), nullptr);
    EXPECT_EQ(t.outLink(0, MeshInfo::kSouth), nullptr);
    EXPECT_NE(t.outLink(0, MeshInfo::kEast), nullptr);
    EXPECT_NE(t.outLink(0, MeshInfo::kNorth), nullptr);
    EXPECT_EQ(t.outLink(15, MeshInfo::kEast), nullptr);
    EXPECT_EQ(t.outLink(15, MeshInfo::kNorth), nullptr);
}

TEST(Mesh, LinkGeometry)
{
    const Topology t = makeMesh(4, 4);
    const LinkSpec *east = t.outLink(5, MeshInfo::kEast);
    ASSERT_NE(east, nullptr);
    EXPECT_EQ(east->dst, 6);
    EXPECT_EQ(east->dstPort, MeshInfo::kWest);
    const LinkSpec *north = t.outLink(5, MeshInfo::kNorth);
    ASSERT_NE(north, nullptr);
    EXPECT_EQ(north->dst, 9);
    EXPECT_EQ(north->dstPort, MeshInfo::kSouth);
}

TEST(Mesh, ManhattanDistances)
{
    const Topology t = makeMesh(8, 8);
    const MeshInfo &m = *t.mesh;
    for (RouterId a : {0, 7, 27, 63}) {
        for (RouterId b : {0, 5, 36, 63}) {
            const int dx = std::abs(m.xOf(a) - m.xOf(b));
            const int dy = std::abs(m.yOf(a) - m.yOf(b));
            EXPECT_EQ(t.distance(a, b), dx + dy);
        }
    }
}

TEST(Mesh, MinimalPortsAreProductive)
{
    const Topology t = makeMesh(8, 8);
    for (RouterId a = 0; a < 64; a += 7) {
        for (RouterId b = 0; b < 64; b += 5) {
            if (a == b)
                continue;
            const PortSet ports = t.minimalPorts(a, b);
            ASSERT_FALSE(ports.empty());
            for (const PortId p : ports) {
                const LinkSpec *l = t.outLink(a, p);
                ASSERT_NE(l, nullptr);
                EXPECT_EQ(t.distance(l->dst, b), t.distance(a, b) - 1);
            }
        }
    }
}

TEST(Mesh, NicPorts)
{
    const Topology t = makeMesh(3, 3);
    for (RouterId r = 0; r < 9; ++r) {
        EXPECT_TRUE(t.isNicPort(r, MeshInfo::kLocal));
        EXPECT_FALSE(t.isNicPort(r, MeshInfo::kEast));
        EXPECT_EQ(t.routerOfNode(r), r);
        ASSERT_EQ(t.nodesAt(r).size(), 1u);
        EXPECT_EQ(t.nodesAt(r)[0], r);
    }
}

TEST(Mesh, RejectsDegenerate)
{
    EXPECT_THROW(makeMesh(1, 1), FatalError);
}

TEST(Torus, WrapLinks)
{
    const Topology t = makeTorus(4, 4);
    ASSERT_TRUE(t.mesh->wrap);
    const LinkSpec *west_of_zero = t.outLink(0, MeshInfo::kWest);
    ASSERT_NE(west_of_zero, nullptr);
    EXPECT_EQ(west_of_zero->dst, 3);
    // Torus distance uses the wrap: corner to corner is 2, not 6.
    EXPECT_EQ(t.distance(0, 15), 2);
}

TEST(Torus, EveryPortWired)
{
    const Topology t = makeTorus(3, 3);
    for (RouterId r = 0; r < 9; ++r) {
        for (PortId p = 0; p < 4; ++p)
            EXPECT_NE(t.outLink(r, p), nullptr);
    }
}

TEST(Ring, Structure)
{
    const Topology t = makeRing(8);
    EXPECT_EQ(t.numRouters(), 8);
    const LinkSpec *cw = t.outLink(3, RingInfo::kCw);
    ASSERT_NE(cw, nullptr);
    EXPECT_EQ(cw->dst, 4);
    EXPECT_EQ(cw->dstPort, RingInfo::kCcw);
    EXPECT_EQ(t.distance(0, 4), 4);
    EXPECT_EQ(t.distance(0, 5), 3); // shorter the other way
}

TEST(Dragonfly, PaperInstanceDimensions)
{
    const Topology t = makePaperDragonfly();
    ASSERT_TRUE(t.dragonfly.has_value());
    const DragonflyInfo &d = *t.dragonfly;
    EXPECT_EQ(d.p, 4);
    EXPECT_EQ(d.a, 8);
    EXPECT_EQ(d.h, 4);
    EXPECT_EQ(d.g, 32);
    EXPECT_EQ(t.numRouters(), 256);
    EXPECT_EQ(t.numNodes(), 1024);
}

TEST(Dragonfly, IntraGroupFullyConnected)
{
    const Topology t = makeDragonfly(2, 4, 2, 0);
    const DragonflyInfo &d = *t.dragonfly;
    for (int g = 0; g < d.g; ++g) {
        for (int i = 0; i < d.a; ++i) {
            for (int j = 0; j < d.a; ++j) {
                if (i == j)
                    continue;
                EXPECT_EQ(t.distance(d.routerOf(g, i), d.routerOf(g, j)),
                          1);
            }
        }
    }
}

TEST(Dragonfly, GroupsOneGlobalHopApart)
{
    const Topology t = makeDragonfly(2, 4, 2, 0); // g = 9, fully global
    const DragonflyInfo &d = *t.dragonfly;
    // Minimal path between any two groups is at most l-g-l = 3 hops.
    for (int ga = 0; ga < d.g; ++ga) {
        for (int gb = 0; gb < d.g; ++gb) {
            if (ga == gb)
                continue;
            EXPECT_LE(t.distance(d.routerOf(ga, 0), d.routerOf(gb, 0)), 3);
        }
    }
}

TEST(Dragonfly, GlobalLinkLatency)
{
    const Topology t = makePaperDragonfly();
    int globals = 0;
    for (const LinkSpec &l : t.links()) {
        if (l.global) {
            EXPECT_EQ(l.latency, 3u);
            ++globals;
        } else {
            EXPECT_EQ(l.latency, 1u);
        }
    }
    // 32 groups * 31 neighbor groups (directed).
    EXPECT_EQ(globals, 32 * 31);
}

TEST(Dragonfly, TerminalsPerRouter)
{
    const Topology t = makePaperDragonfly();
    for (RouterId r = 0; r < t.numRouters(); ++r)
        EXPECT_EQ(static_cast<int>(t.nodesAt(r).size()), 4);
}

TEST(Dragonfly, RejectsTooManyGroups)
{
    EXPECT_THROW(makeDragonfly(2, 4, 2, 10), FatalError);
}

TEST(FaultyMesh, RemovesLink)
{
    const Topology t = makeFaultyMesh(4, 4, {{5, 6}});
    EXPECT_EQ(t.outLink(5, MeshInfo::kEast), nullptr);
    EXPECT_EQ(t.outLink(6, MeshInfo::kWest), nullptr);
    // Still connected; the detour costs 2 extra hops.
    EXPECT_EQ(t.distance(5, 6), 3);
    // No mesh metadata: structure-aware routing must refuse it.
    EXPECT_FALSE(t.mesh.has_value());
}

TEST(FaultyMesh, RejectsDisconnection)
{
    // Cutting both links around router 0 isolates it.
    EXPECT_THROW(makeFaultyMesh(2, 2, {{0, 1}, {0, 2}}), FatalError);
}

TEST(FaultyMesh, RejectsNonAdjacent)
{
    EXPECT_THROW(makeFaultyMesh(4, 4, {{0, 5}}), FatalError);
}

TEST(RandomFaultyMesh, StaysConnected)
{
    Random rng(123);
    const Topology t = makeRandomFaultyMesh(6, 6, 8, rng);
    for (RouterId a = 0; a < t.numRouters(); ++a)
        EXPECT_GE(t.distance(0, a), 0);
    EXPECT_EQ(static_cast<int>(t.links().size()), (2 * 6 * 5 - 8) * 2);
}

TEST(RandomRegular, DegreeAndConnectivity)
{
    Random rng(99);
    const Topology t = makeRandomRegular(16, 4, rng);
    EXPECT_EQ(t.numRouters(), 16);
    for (RouterId r = 0; r < 16; ++r) {
        int wired = 0;
        for (PortId p = 0; p < 4; ++p) {
            if (t.outLink(r, p))
                ++wired;
        }
        EXPECT_EQ(wired, 4);
        EXPECT_TRUE(t.isNicPort(r, 4));
    }
}

TEST(RandomRegular, RejectsOddStubCount)
{
    Random rng(1);
    EXPECT_THROW(makeRandomRegular(5, 3, rng), FatalError);
}

/** Every (s, t) entry equals {p : dist(neighbor(p), t) == dist(s, t) - 1}
 *  in ascending order, and is empty only on the diagonal. */
void
expectMinimalTables(const Topology &t)
{
    for (RouterId s = 0; s < t.numRouters(); ++s) {
        for (RouterId d = 0; d < t.numRouters(); ++d) {
            std::vector<PortId> want;
            for (PortId p = 0; p < t.radix(s); ++p) {
                const LinkSpec *l = t.outLink(s, p);
                if (l && t.distance(l->dst, d) == t.distance(s, d) - 1)
                    want.push_back(p);
            }
            const PortSet got = t.minimalPorts(s, d);
            ASSERT_EQ(std::vector<PortId>(got.begin(), got.end()), want)
                << s << " -> " << d;
            ASSERT_EQ(got.size(), want.size());
            ASSERT_EQ(got.empty(), s == d) << s << " -> " << d;
            if (!want.empty()) {
                ASSERT_EQ(got.front(), want.front());
            }
        }
    }
}

TEST(Topology, MinimalPortTablesTorus8x8)
{
    expectMinimalTables(makeTorus(8, 8));
}

TEST(Topology, MinimalPortTablesPaperDragonfly)
{
    expectMinimalTables(makePaperDragonfly());
}

TEST(Topology, MinimalPortTablesRandomRegular)
{
    Random rng(7);
    expectMinimalTables(makeRandomRegular(24, 5, rng));
}

TEST(Topology, PartialTablesLeaveUnreachablePairsEmpty)
{
    // Router 2 hears from router 1 but has no way back out.
    Topology t;
    t.setRouters(3, 2);
    t.addBiLink(0, 0, 1, 0);
    t.addLink(LinkSpec{1, 1, 2, 1});
    t.finalizePartial();
    EXPECT_TRUE(t.partial());
    EXPECT_EQ(t.distance(0, 2), 2);
    EXPECT_EQ(t.minimalPorts(0, 2).front(), 0);
    for (RouterId s : {0, 1}) {
        EXPECT_EQ(t.distance(2, s), -1);
        EXPECT_TRUE(t.minimalPorts(2, s).empty());
    }
    EXPECT_TRUE(t.minimalPorts(2, 2).empty());
    EXPECT_TRUE(t.minimalPorts(1, 1).empty());
}

TEST(Topology, PortMasksCoverRadix64Only)
{
    // Masks are stored ceil(radix / 8) bytes wide: the top port sits in
    // the last byte, alone (8, 16, 64) or as its only bit (9, 17).
    for (const int radix : {8, 9, 16, 17, 64}) {
        SCOPED_TRACE(radix);
        Topology wide;
        wide.setRouters(2, radix);
        wide.addBiLink(0, radix - 1, 1, radix - 1);
        wide.finalize();
        const PortSet top = wide.minimalPorts(0, 1);
        EXPECT_EQ(top.size(), 1u);
        EXPECT_EQ(top.front(), radix - 1);
        EXPECT_EQ(wide.minimalPorts(1, 0).front(), radix - 1);
        EXPECT_TRUE(wide.minimalPorts(0, 0).empty());
    }

    // Mixed radix: the radix-12 hub sets a 2-byte width, and the
    // radix-3 leaves' masks still read back exactly. Leaf i hangs off
    // hub port hub_port[i] (both bytes, top port included) through its
    // own port 1.
    Topology mixed;
    mixed.setRouters({12, 3, 3, 3});
    const PortId hub_port[] = {0, 7, 11};
    for (int i = 0; i < 3; ++i)
        mixed.addBiLink(0, hub_port[i], 1 + i, 1);
    mixed.finalize();
    for (int i = 0; i < 3; ++i) {
        const PortSet down = mixed.minimalPorts(0, 1 + i);
        EXPECT_EQ(std::vector<PortId>(down.begin(), down.end()),
                  std::vector<PortId>{hub_port[i]});
        for (int j = 0; j < 3; ++j) {
            if (j == i)
                continue;
            const PortSet up = mixed.minimalPorts(1 + i, 1 + j);
            EXPECT_EQ(up.size(), 1u);
            EXPECT_EQ(up.front(), 1);
            EXPECT_EQ(mixed.distance(1 + i, 1 + j), 2);
        }
    }

    Topology too_wide;
    too_wide.setRouters(2, 65);
    too_wide.addBiLink(0, 0, 1, 0);
    EXPECT_THROW(too_wide.finalize(), FatalError);
}

TEST(Topology, CustomGraphValidation)
{
    Topology t;
    t.setRouters(2, 2);
    t.addBiLink(0, 0, 1, 0);
    t.attachNic(0, 0, 1);
    t.attachNic(1, 1, 1);
    t.finalize();
    EXPECT_EQ(t.distance(0, 1), 1);

    Topology bad;
    bad.setRouters(3, 2);
    bad.addBiLink(0, 0, 1, 0); // router 2 disconnected
    EXPECT_THROW(bad.finalize(), FatalError);
}

} // namespace
} // namespace spin
