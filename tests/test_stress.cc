/**
 * @file
 * Property-based stress tests: the paper's central invariant is that
 * SPIN makes *any* (continuously routing) configuration deadlock-free.
 * We saturate cycle-prone topologies -- torus, ring, dragonfly, faulty
 * meshes, random regular graphs -- with fully adaptive routing and one
 * VC, then stop injection and require complete drainage: no packet may
 * remain stuck. Parameterized over seeds and patterns.
 */

#include <array>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/SpinManager.hh"
#include "deadlock/OracleDetector.hh"
#include "tests/SpinTestUtil.hh"
#include "topology/Dragonfly.hh"
#include "topology/Irregular.hh"
#include "topology/Mesh.hh"
#include "topology/Torus.hh"
#include "traffic/SyntheticInjector.hh"

namespace spin
{
namespace
{

NetworkConfig
spinCfg(int vcs, std::uint64_t seed, Cycle t_dd = 64)
{
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = vcs;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    cfg.tDd = t_dd;
    cfg.seed = seed;
    return cfg;
}

/** Saturate, stop, drain; assert full delivery. */
void
saturateAndDrain(Network &net, Pattern pattern, double rate,
                 Cycle load_cycles, Cycle drain_cycles,
                 std::uint64_t seed)
{
    InjectorConfig icfg;
    icfg.injectionRate = rate;
    icfg.seed = seed;
    SyntheticInjector inj(net, pattern, icfg);
    for (Cycle i = 0; i < load_cycles; ++i) {
        inj.tick();
        net.step();
    }
    drain(net, drain_cycles);
    EXPECT_EQ(net.packetsInFlight(), 0u)
        << "stuck packets under " << toString(pattern) << " seed "
        << seed;
    EXPECT_EQ(net.stats().packetsEjected, net.stats().packetsCreated);
    OracleDetector oracle(net);
    EXPECT_FALSE(oracle.detect().deadlocked);
}

/**
 * gtest names each case after the raw bytes of its parameter. The bytes
 * after `pattern` used to be padding, left uninitialised, so the case
 * names changed from build to build. `nameBytes` fills that space; its
 * values keep the names the cases were first recorded under and play no
 * part in the test.
 */
struct StressParam
{
    std::uint64_t seed;
    Pattern pattern;
    std::array<std::uint8_t, 7> nameBytes;
};
static_assert(std::has_unique_object_representations_v<StressParam>,
              "StressParam must have no padding: gtest prints its bytes");

class TorusStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(TorusStress, SaturatedOneVcTorusDrains)
{
    // A torus with minimal adaptive routing and one VC deadlocks
    // readily (wrap-around cycles); SPIN must keep it live.
    const std::uint64_t seed = GetParam().seed;
    const Pattern pattern = GetParam().pattern;
    auto topo = std::make_shared<Topology>(makeTorus(4, 4));
    auto net = buildNetwork(topo, spinCfg(1, seed),
                            RoutingKind::MinimalAdaptive);
    saturateAndDrain(*net, pattern, 0.45, 3000, 20000, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TorusStress,
    ::testing::Values(
        StressParam{1, Pattern::UniformRandom, {}},
        StressParam{2, Pattern::UniformRandom, {0x00, 0x04}},
        StressParam{3, Pattern::BitComplement, {0xFF, 0x70}},
        StressParam{4, Pattern::Tornado, {}},
        StressParam{5, Pattern::Transpose, {}},
        StressParam{6, Pattern::BitReverse, {0x00, 0x04}},
        StressParam{7, Pattern::Shuffle, {0xDA, 0x55}},
        StressParam{8, Pattern::Neighbor, {}}));

class MeshStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(MeshStress, SaturatedOneVcAdaptiveMeshDrains)
{
    // Fully adaptive minimal on a mesh has cyclic CDG (all turns
    // allowed): the FAvORS-Min configuration of the paper.
    const std::uint64_t seed = GetParam().seed;
    const Pattern pattern = GetParam().pattern;
    auto topo = std::make_shared<Topology>(makeMesh(5, 5));
    auto net = buildNetwork(topo, spinCfg(1, seed),
                            RoutingKind::FavorsMin);
    saturateAndDrain(*net, pattern, 0.50, 3000, 40000, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MeshStress,
    ::testing::Values(
        StressParam{11, Pattern::UniformRandom, {0x09, 0x9F, 0x20}},
        StressParam{12, Pattern::Transpose,
                    {0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
        StressParam{13, Pattern::BitComplement, {0x79, 0x97, 0x74}},
        StressParam{14, Pattern::BitReverse, {0x62, 0x97, 0x74}},
        StressParam{15, Pattern::Tornado, {0x2F, 0xC5, 0x24}},
        StressParam{16, Pattern::BitRotation, {0xDF, 0xC3, 0x39}}));

TEST(MeshStress, ThreeVcAdaptiveMeshDrains)
{
    auto topo = std::make_shared<Topology>(makeMesh(4, 4));
    auto net = buildNetwork(topo, spinCfg(3, 21),
                            RoutingKind::MinimalAdaptive);
    saturateAndDrain(*net, Pattern::Transpose, 0.8, 3000, 25000, 21);
}

TEST(MeshStress, VnetsIsolateProtocolClasses)
{
    auto topo = std::make_shared<Topology>(makeMesh(4, 4));
    NetworkConfig cfg = spinCfg(1, 31);
    cfg.vnets = 3;
    auto net = buildNetwork(topo, cfg, RoutingKind::FavorsMin);
    saturateAndDrain(*net, Pattern::UniformRandom, 0.5, 2500, 20000, 31);
}

class DragonflyStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(DragonflyStress, SmallDragonflyOneVcDrains)
{
    const std::uint64_t seed = GetParam().seed;
    const Pattern pattern = GetParam().pattern;
    // p=2, a=4, h=2, g=9: 72 terminals, 36 routers -- small enough for
    // a unit test, with real global-link latencies.
    auto topo = std::make_shared<Topology>(makeDragonfly(2, 4, 2, 0));
    auto net = buildNetwork(topo, spinCfg(1, seed),
                            RoutingKind::MinimalAdaptive);
    saturateAndDrain(*net, pattern, 0.30, 2000, 60000, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DragonflyStress,
    ::testing::Values(
        StressParam{41, Pattern::UniformRandom, {0x86, 0x97, 0x74}},
        StressParam{42, Pattern::BitComplement, {0x69, 0x97, 0x74}},
        StressParam{43, Pattern::Tornado, {0x2F, 0xC5, 0x24}},
        StressParam{44, Pattern::Shuffle, {0xDF, 0xC3, 0x39}}));

TEST(DragonflyStress, UgalSpinDrains)
{
    auto topo = std::make_shared<Topology>(makeDragonfly(2, 4, 2, 0));
    auto net = buildNetwork(topo, spinCfg(3, 51),
                            RoutingKind::UgalSpin);
    saturateAndDrain(*net, Pattern::Tornado, 0.35, 2000, 60000, 51);
}

TEST(DragonflyStress, FavorsNonMinimalDrains)
{
    auto topo = std::make_shared<Topology>(makeDragonfly(2, 4, 2, 0));
    auto net = buildNetwork(topo, spinCfg(1, 61),
                            RoutingKind::FavorsNMin);
    saturateAndDrain(*net, Pattern::BitComplement, 0.30, 2000, 80000, 61);
}

class IrregularStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IrregularStress, FaultyMeshDrains)
{
    // The headline use case: an irregular (power-gated) topology where
    // no turn model applies; table-driven adaptive + SPIN just works.
    const std::uint64_t seed = GetParam();
    Random trng(seed);
    auto topo = std::make_shared<Topology>(
        makeRandomFaultyMesh(5, 5, 6, trng));
    auto net = buildNetwork(topo, spinCfg(1, seed),
                            RoutingKind::MinimalAdaptive);
    // Well past saturation for a link-starved mesh; the drain budget
    // covers the long recover-and-crawl tail that follows.
    saturateAndDrain(*net, Pattern::UniformRandom, 0.30, 2000, 60000,
                     seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrregularStress,
                         ::testing::Values(71, 72, 73, 74, 75));

class RandomGraphStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomGraphStress, JellyfishStyleGraphDrains)
{
    const std::uint64_t seed = GetParam();
    Random trng(seed);
    auto topo = std::make_shared<Topology>(makeRandomRegular(16, 3,
                                                             trng));
    auto net = buildNetwork(topo, spinCfg(1, seed),
                            RoutingKind::MinimalAdaptive);
    saturateAndDrain(*net, Pattern::UniformRandom, 0.30, 2000, 60000,
                     seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphStress,
                         ::testing::Values(81, 82, 83));

TEST(RingStressLong, ContinuousAdversarialLoadStaysLive)
{
    // Hours of deadlock-form/resolve churn compressed: continuous
    // clockwise load on a 1-VC ring.
    auto net = ringNetwork(6, DeadlockScheme::Spin, 1, 32);
    Random rng(99);
    for (int i = 0; i < 12000; ++i) {
        if (i % 20 == 0) {
            for (NodeId s = 0; s < 6; ++s)
                net->offerPacket(net->makePacket(s, (s + 2) % 6, 0, 5));
        }
        net->step();
    }
    // Recovery churn dominates drainage here: the 1-VC clockwise ring
    // re-deadlocks continuously (hundreds of spins), so the drain
    // budget is generous.
    drain(*net, 60000);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GT(net->stats().spins, 0u);
}

} // namespace
} // namespace spin
