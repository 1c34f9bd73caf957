/**
 * @file
 * Unit tests: the construction facade -- routing factory, Table III
 * presets, and configuration validation at network-build time.
 */

#include <gtest/gtest.h>

#include "network/NetworkBuilder.hh"
#include "topology/Dragonfly.hh"
#include "topology/Mesh.hh"

namespace spin
{
namespace
{

TEST(Builder, MakeRoutingNames)
{
    EXPECT_EQ(makeRouting(RoutingKind::XyDor)->name(), "xy-dor");
    EXPECT_EQ(makeRouting(RoutingKind::WestFirst)->name(), "west-first");
    EXPECT_EQ(makeRouting(RoutingKind::MinimalAdaptive)->name(),
              "minimal-adaptive");
    EXPECT_EQ(makeRouting(RoutingKind::EscapeVc)->name(), "escape-vc");
    EXPECT_EQ(makeRouting(RoutingKind::UgalDally)->name(), "ugal-dally");
    EXPECT_EQ(makeRouting(RoutingKind::UgalSpin)->name(), "ugal-spin");
    EXPECT_EQ(makeRouting(RoutingKind::FavorsMin)->name(), "favors-min");
    EXPECT_EQ(makeRouting(RoutingKind::FavorsNMin)->name(),
              "favors-nmin");
}

TEST(Builder, ToStringMatchesKind)
{
    EXPECT_STREQ(toString(RoutingKind::FavorsNMin), "favors-nmin");
    EXPECT_STREQ(toString(RoutingKind::UgalDally), "ugal-dally");
    EXPECT_STREQ(toString(RoutingKind::TorusBubble), "torus-bubble-dor");
}

TEST(Builder, EveryKindHasConsistentNameAndFactory)
{
    // toString(kind) must agree with the instantiated algorithm's own
    // name() for every enumerator (catches missing switch cases).
    for (const RoutingKind k :
         {RoutingKind::XyDor, RoutingKind::WestFirst,
          RoutingKind::MinimalAdaptive, RoutingKind::EscapeVc,
          RoutingKind::TorusBubble, RoutingKind::UgalDally,
          RoutingKind::UgalSpin, RoutingKind::FavorsMin,
          RoutingKind::FavorsNMin}) {
        auto algo = makeRouting(k);
        ASSERT_NE(algo, nullptr);
        EXPECT_EQ(algo->name(), toString(k));
        EXPECT_STRNE(toString(k), "?");
    }
}

TEST(Builder, MeshPresetsBuild)
{
    auto topo = std::make_shared<Topology>(makeMesh(4, 4));
    for (const ConfigPreset &p : meshPresets3Vc()) {
        auto net = p.build(topo);
        ASSERT_NE(net, nullptr) << p.name;
        EXPECT_EQ(net->config().name, p.name);
        EXPECT_EQ(net->config().vcsPerVnet, 3);
        net->run(50); // must at least idle cleanly
    }
    for (const ConfigPreset &p : meshPresets1Vc()) {
        auto net = p.build(topo);
        EXPECT_EQ(net->config().vcsPerVnet, 1);
        net->run(50);
    }
}

TEST(Builder, DragonflyPresetsBuild)
{
    auto topo = std::make_shared<Topology>(makeDragonfly(2, 4, 2, 0));
    for (const ConfigPreset &p : dragonflyPresets3Vc()) {
        auto net = p.build(topo);
        net->run(50);
    }
    for (const ConfigPreset &p : dragonflyPresets1Vc()) {
        auto net = p.build(topo);
        net->run(50);
    }
}

TEST(Builder, PresetSchemesMatchTableIii)
{
    const auto mesh3 = meshPresets3Vc();
    EXPECT_EQ(mesh3[0].cfg.scheme, DeadlockScheme::None);  // WestFirst
    EXPECT_EQ(mesh3[1].cfg.scheme, DeadlockScheme::None);  // EscapeVC
    EXPECT_EQ(mesh3[2].cfg.scheme, DeadlockScheme::StaticBubble);
    EXPECT_EQ(mesh3[3].cfg.scheme, DeadlockScheme::Spin);
    const auto dfly3 = dragonflyPresets3Vc();
    EXPECT_EQ(dfly3[0].cfg.scheme, DeadlockScheme::None);  // Dally
    EXPECT_EQ(dfly3[1].cfg.scheme, DeadlockScheme::Spin);
}

TEST(Builder, SpinManagerOnlyWhenSpinScheme)
{
    auto topo = std::make_shared<Topology>(makeMesh(4, 4));
    auto spin_net = meshPresets3Vc()[3].build(topo);
    EXPECT_NE(spin_net->spinManager(), nullptr);
    auto plain_net = meshPresets3Vc()[0].build(topo);
    EXPECT_EQ(plain_net->spinManager(), nullptr);
}

TEST(Builder, VcRequirementEnforcedAtBuild)
{
    auto topo = std::make_shared<Topology>(makeDragonfly(2, 4, 2, 0));
    NetworkConfig cfg;
    cfg.vcsPerVnet = 2; // ugal-dally needs 3
    EXPECT_THROW(buildNetwork(topo, cfg, RoutingKind::UgalDally),
                 FatalError);
}

TEST(Builder, SchemeToString)
{
    EXPECT_STREQ(toString(DeadlockScheme::Spin), "spin");
    EXPECT_STREQ(toString(DeadlockScheme::StaticBubble), "static-bubble");
    EXPECT_STREQ(toString(DeadlockScheme::None), "none");
}

} // namespace
} // namespace spin
