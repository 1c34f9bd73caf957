/**
 * @file
 * Tests for the fault-injection subsystem (src/fault): schedule
 * parsing and macro expansion, the degraded-topology builder, live
 * injection (accounting, no-hang draining, trace coverage), the
 * campaign determinism contract with a faults dimension, and the
 * static analyzer's verdict on a degraded mesh.
 */

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/CdgAnalyzer.hh"
#include "exp/Campaign.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultInjector.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Tracer.hh"
#include "topology/Mesh.hh"

namespace spin::fault
{
namespace
{

FaultSchedule
parseSchedule(const char *json)
{
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(json, &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    FaultSchedule fs;
    std::string err;
    EXPECT_TRUE(FaultSchedule::fromJson(doc, fs, err)) << err;
    return fs;
}

// The CI smoke schedule (bench/faults_smoke.json), inlined so the test
// binary does not depend on the source-tree layout.
constexpr const char *kSmokeSpec = R"({
    "schema": "spin-faults/v2",
    "events": [
        {"kind": "link", "cycle": 100, "src": 27, "dst": 28},
        {"kind": "link", "cycle": 100, "src": 35, "dst": 43},
        {"kind": "router", "cycle": 150, "router": 9},
        {"kind": "corrupt", "cycle": 200, "src": 1, "dst": 2},
        {"kind": "drop", "cycle": 220, "src": 2, "dst": 3},
        {"kind": "random-links", "cycle": 300, "count": 2, "seed": 7}
    ]})";

// ---------------------------------------------------------------------
// Schedule parsing and expansion
// ---------------------------------------------------------------------

TEST(FaultScheduleTest, RoundTripsThroughJson)
{
    const FaultSchedule fs = parseSchedule(kSmokeSpec);
    ASSERT_EQ(fs.events.size(), 6u);
    EXPECT_EQ(fs.events[0].kind, FaultKind::LinkFail);
    EXPECT_EQ(fs.events[2].kind, FaultKind::RouterFail);
    EXPECT_EQ(fs.events[5].kind, FaultKind::RandomLinks);

    FaultSchedule back;
    std::string err;
    ASSERT_TRUE(FaultSchedule::fromJson(fs.toJson(), back, err)) << err;
    EXPECT_EQ(back.toJson().dump(), fs.toJson().dump());
}

TEST(FaultScheduleTest, RejectsMalformedDocuments)
{
    auto fails = [](const char *json, const char *want_in_err) {
        std::string perr;
        const obs::JsonValue doc = obs::JsonValue::parse(json, &perr);
        EXPECT_TRUE(perr.empty()) << perr;
        FaultSchedule fs;
        std::string err;
        if (FaultSchedule::fromJson(doc, fs, err))
            return false;
        EXPECT_NE(err.find(want_in_err), std::string::npos)
            << "error '" << err << "' does not mention '" << want_in_err
            << "'";
        return true;
    };
    EXPECT_TRUE(fails(R"({"events": []})", "schema"));
    EXPECT_TRUE(fails(R"({"schema": "spin-faults/v2"})", "events"));
    EXPECT_TRUE(fails(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "meteor", "cycle": 1}]})",
        "kind"));
    EXPECT_TRUE(fails(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "link", "cycle": 1}]})",
        "src"));
}

TEST(FaultScheduleTest, ValidateCatchesOutOfRangeEndpoints)
{
    const auto topo = std::make_shared<Topology>(makeMesh(4, 4));
    FaultSchedule fs = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "link", "cycle": 1,
                        "src": 0, "dst": 99}]})");
    EXPECT_FALSE(fs.validate(*topo).empty());

    fs = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "router", "cycle": 1, "router": 3}]})");
    EXPECT_TRUE(fs.validate(*topo).empty()) << fs.validate(*topo);
}

TEST(FaultScheduleTest, RandomLinksConcretizesDeterministically)
{
    const auto topo = std::make_shared<Topology>(makeMesh(8, 8));
    const FaultSchedule fs = FaultSchedule::randomLinkFailures(4, 42, 10);
    const std::vector<FaultEvent> a = fs.concretize(*topo);
    const std::vector<FaultEvent> b = fs.concretize(*topo);
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, FaultKind::LinkFail);
        EXPECT_EQ(a[i].cycle, 10u);
        EXPECT_EQ(a[i].src, b[i].src);
        EXPECT_EQ(a[i].dst, b[i].dst);
        EXPECT_LT(a[i].src, 64);
        EXPECT_LT(a[i].dst, 64);
    }
}

// ---------------------------------------------------------------------
// Degraded topology
// ---------------------------------------------------------------------

TEST(DegradedTopologyTest, RemovesLinksAndMarksPartial)
{
    const Topology base = makeMesh(4, 4);
    const std::size_t before = base.links().size();
    FaultSchedule fs = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "link", "cycle": 1,
                        "src": 5, "dst": 6}]})");
    const auto degraded = degradedTopology(base, fs.concretize(base));
    ASSERT_TRUE(degraded);
    EXPECT_TRUE(degraded->partial());
    // Both directions of the failed pair are gone.
    EXPECT_EQ(degraded->links().size(), before - 2);
    // The mesh stays connected around the cut.
    EXPECT_GT(degraded->distance(5, 6), 1);
}

TEST(DegradedTopologyTest, DeadRouterDisconnectsItsPairs)
{
    const Topology base = makeMesh(4, 4);
    FaultSchedule fs = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "router", "cycle": 1, "router": 5}]})");
    const auto degraded = degradedTopology(base, fs.concretize(base));
    EXPECT_TRUE(degraded->partial());
    EXPECT_EQ(degraded->distance(0, 5), -1);
    EXPECT_EQ(degraded->distance(5, 0), -1);
    // The rest of the mesh routes around the dead router.
    EXPECT_EQ(degraded->distance(4, 6), 4);
}

// ---------------------------------------------------------------------
// Live injection
// ---------------------------------------------------------------------

std::unique_ptr<Network>
meshNet(int x, int y, RoutingKind kind, int vcs)
{
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = vcs;
    cfg.scheme = DeadlockScheme::None;
    return buildNetwork(std::make_shared<Topology>(makeMesh(x, y)), cfg,
                        kind);
}

TEST(FaultInjectionTest, DeadRouterPacketsAreAccountedNotHung)
{
    auto net = meshNet(4, 4, RoutingKind::WestFirst, 3);
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "router", "cycle": 10, "router": 5}]})"));

    // Traffic into, out of, and across the doomed router.
    for (int wave = 0; wave < 8; ++wave) {
        net->offerPacket(net->makePacket(0, 5, 0, 3));  // into it
        net->offerPacket(net->makePacket(5, 10, 0, 3)); // out of it
        net->offerPacket(net->makePacket(4, 7, 0, 3));  // across row 1
        for (int i = 0; i < 4; ++i)
            net->step();
    }
    for (int i = 0; i < 600 && net->packetsInFlight() > 0; ++i)
        net->step();

    const Stats &st = net->stats();
    EXPECT_EQ(st.routersFailed, 1u);
    EXPECT_GT(st.packetsUnroutable, 0u);
    // Nothing wedges: every offered packet either ejected or was
    // retired with an accounted loss.
    EXPECT_EQ(net->packetsInFlight(), 0u);
}

TEST(FaultInjectionTest, StructuralCountersSurviveMeasurementReset)
{
    auto net = meshNet(4, 4, RoutingKind::WestFirst, 3);
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "link", "cycle": 5,
                        "src": 1, "dst": 2}]})"));
    net->run(20);
    EXPECT_EQ(net->stats().linksFailed, 1u);
    net->beginMeasurement();
    // The warmup reset clears window counters but not fabric damage.
    EXPECT_EQ(net->stats().linksFailed, 1u);
    EXPECT_EQ(net->stats().packetsInjected, 0u);
}

TEST(FaultInjectionTest, EveryInjectedFaultAppearsInTheTrace)
{
    auto net = meshNet(4, 4, RoutingKind::WestFirst, 3);
    std::stringstream ss;
    net->setTracer(std::make_unique<obs::Tracer>(
        std::make_unique<obs::JsonlSink>(ss)));
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [
                {"kind": "link", "cycle": 5, "src": 1, "dst": 2},
                {"kind": "router", "cycle": 8, "router": 10},
                {"kind": "corrupt", "cycle": 12, "src": 0, "dst": 1},
                {"kind": "drop", "cycle": 12, "src": 0, "dst": 1}
            ]})"));
    net->run(20);
    net->trace()->flush();

    std::set<std::string> faultEvents;
    std::string line;
    while (std::getline(ss, line)) {
        std::string err;
        const obs::JsonValue j = obs::JsonValue::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err;
        if (j["cat"].asString() == "fault")
            faultEvents.insert(j["ev"].asString());
    }
    // The arm events fire at apply time, so all four injections are
    // visible even when no flit happens to traverse the armed link.
    EXPECT_TRUE(faultEvents.count("link_fail"));
    EXPECT_TRUE(faultEvents.count("router_fail"));
    EXPECT_TRUE(faultEvents.count("corrupt_arm"));
    EXPECT_TRUE(faultEvents.count("drop_arm"));
}

// ---------------------------------------------------------------------
// Campaign determinism with a faults dimension
// ---------------------------------------------------------------------

exp::SweepSpec
faultySpec()
{
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(
        R"({"name": "unit-faults", "topology": "mesh4x4",
            "presets": ["WestFirst_3VC", "MinAdaptive_3VC_SPIN"],
            "patterns": ["uniform-random"],
            "rates": [0.1], "seeds": [1, 2],
            "faults": [0, 2], "faultCycle": 30,
            "warmup": 50, "measure": 150, "latencyCap": 200.0})",
        &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    exp::SweepSpec s;
    std::string err;
    EXPECT_TRUE(exp::SweepSpec::fromJson(doc, s, err)) << err;
    return s;
}

TEST(FaultCampaignTest, FaultsDimensionExpandsAndPerturbsSeeds)
{
    const exp::SweepSpec spec = faultySpec();
    const std::vector<exp::Cell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 2u * 1 * 1 * 2 * 2);
    for (const exp::Cell &c : cells) {
        if (c.faultCount == 0) {
            EXPECT_EQ(c.id.find("__f"), std::string::npos) << c.id;
        } else {
            EXPECT_NE(c.id.find("__f2"), std::string::npos) << c.id;
        }
    }
}

TEST(FaultCampaignTest, AggregateIsBitIdenticalAcrossWorkerCounts)
{
    const exp::SweepSpec spec = faultySpec();
    exp::CampaignOptions serial;
    serial.jobs = 1;
    exp::CampaignOptions pooled;
    pooled.jobs = 4;
    const std::string a = exp::Campaign(spec, serial).run().dump(2);
    const std::string b = exp::Campaign(spec, pooled).run().dump(2);
    EXPECT_EQ(a, b);
}

TEST(FaultCampaignTest, FixedScheduleReachesEveryCellDeterministically)
{
    const exp::SweepSpec spec = faultySpec();
    exp::CampaignOptions opt;
    opt.jobs = 2;
    const FaultSchedule fixed = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "link", "cycle": 20,
                        "src": 1, "dst": 2}]})");
    const obs::JsonValue results = exp::Campaign(spec, opt, fixed).run();
    const obs::JsonValue &cells = results["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const obs::JsonValue &c = cells.at(i);
        ASSERT_NE(c.find("faultSchedule"), nullptr) << c["cell"].asString();
        EXPECT_GE(c["stats"]["faults"]["linksFailed"].asU64(), 1u)
            << c["cell"].asString();
    }
    exp::CampaignOptions serial = opt;
    serial.jobs = 1;
    EXPECT_EQ(exp::Campaign(spec, serial, fixed).run().dump(2),
              results.dump(2));
}

// ---------------------------------------------------------------------
// Static analysis on the degraded topology (the spin_lint cross-check)
// ---------------------------------------------------------------------

TEST(FaultAnalysisTest, DegradedEscapeVcLosesItsContract)
{
    const Topology base = makeMesh(8, 8);
    const FaultSchedule fs = parseSchedule(kSmokeSpec);
    ASSERT_TRUE(fs.validate(base).empty()) << fs.validate(base);
    const auto degraded = degradedTopology(base, fs.concretize(base));

    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 3;
    cfg.scheme = DeadlockScheme::None;

    // The escape ring needs the full mesh; cutting links from it turns
    // the Duato condition false and the CDG cyclic.
    auto esc = buildNetwork(degraded, cfg, RoutingKind::EscapeVc);
    const analysis::AnalysisReport er =
        analysis::CdgAnalyzer(*esc).analyze(0);
    EXPECT_EQ(er.verdict, analysis::Verdict::Deadlockable)
        << toString(er.verdict);

    // West-first's turn restrictions are per-hop, so any subset of the
    // mesh keeps the acyclic CDG: the runtime reroute stays safe.
    auto wf = buildNetwork(degraded, cfg, RoutingKind::WestFirst);
    const analysis::AnalysisReport wr =
        analysis::CdgAnalyzer(*wf).analyze(0);
    EXPECT_EQ(wr.verdict, analysis::Verdict::Acyclic)
        << toString(wr.verdict);
}

} // namespace
} // namespace spin::fault
