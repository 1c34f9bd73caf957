/**
 * @file
 * Sharded-step determinism tests: the StepExecutor primitive, thread
 * clamping, and the central contract of docs/SCALING.md -- a network
 * stepped with any `threads` value produces bit-identical statistics,
 * telemetry, trace streams and metrics streams. Every workload here
 * runs once per thread count and the outputs are compared as strings,
 * so any divergence (ordering, rng, staging) fails loudly.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "SpinTestUtil.hh"
#include "common/Logging.hh"
#include "fault/FaultInjector.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "obs/Tracer.hh"
#include "sim/Parallel.hh"
#include "topology/Dragonfly.hh"
#include "topology/Torus.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;

namespace
{

// ---------------------------------------------------------------------
// StepExecutor
// ---------------------------------------------------------------------

TEST(StepExecutor, RunsEveryShardExactlyOncePerGeneration)
{
    StepExecutor exec(4);
    EXPECT_EQ(exec.threads(), 4);
    std::vector<int> hits(4, 0);
    for (int gen = 0; gen < 200; ++gen)
        exec.run([&](int s) { ++hits[static_cast<std::size_t>(s)]; });
    for (const int h : hits)
        EXPECT_EQ(h, 200);
}

TEST(StepExecutor, SingleThreadRunsInline)
{
    StepExecutor exec(1);
    int calls = 0;
    exec.run([&](int s) {
        EXPECT_EQ(s, 0);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(StepExecutor, PropagatesWorkerExceptionAndStaysUsable)
{
    StepExecutor exec(3);
    EXPECT_THROW(exec.run([](int s) {
        if (s == 2)
            throw FatalError("shard 2 exploded");
    }),
                 FatalError);
    // The pool must survive a failed generation.
    std::vector<int> hits(3, 0);
    exec.run([&](int s) { ++hits[static_cast<std::size_t>(s)]; });
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

// ---------------------------------------------------------------------
// Thread clamping
// ---------------------------------------------------------------------

TEST(ParallelStep, ThreadsClampToRouterCount)
{
    auto topo = std::make_shared<Topology>(makeRing(6));
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 2;
    cfg.threads = 64;
    Network net(topo, cfg, makeRouting(RoutingKind::XyDor));
    EXPECT_EQ(net.threads(), 6);
}

// ---------------------------------------------------------------------
// Bit-identity across thread counts
// ---------------------------------------------------------------------

/** Full telemetry of a saturated SPIN torus run at @p threads. */
std::string
torusTelemetry(int threads)
{
    auto topo = std::make_shared<Topology>(makeTorus(8, 8));
    ConfigPreset preset = meshPresets3Vc()[3]; // MinAdaptive + SPIN
    preset.cfg.seed = 99;
    preset.cfg.threads = threads;
    auto net = preset.build(topo);
    InjectorConfig icfg;
    icfg.injectionRate = 0.45; // deep saturation: recovery active
    icfg.seed = 100;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);
    for (int i = 0; i < 500; ++i) {
        inj.tick();
        net->step();
    }
    net->beginMeasurement(); // warmup reset composes with sharding
    for (int i = 0; i < 2500; ++i) {
        inj.tick();
        net->step();
    }
    EXPECT_GT(net->stats().packetsEjected, 1000u);
    return net->telemetryJson().dump(2);
}

TEST(ParallelStep, TorusSpinTelemetryBitIdenticalAcrossThreadCounts)
{
    const std::string serial = torusTelemetry(1);
    // 3 leaves uneven shards (22/21/21 routers); 4 is the CI gate.
    EXPECT_EQ(serial, torusTelemetry(2));
    EXPECT_EQ(serial, torusTelemetry(3));
    EXPECT_EQ(serial, torusTelemetry(4));
}

/** Trace stream (all categories) of a recovering ring at @p threads. */
std::string
ringTrace(int threads)
{
    auto topo = std::make_shared<Topology>(makeRing(6));
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    cfg.tDd = 32;
    cfg.threads = threads;
    auto net = std::make_unique<Network>(topo, cfg,
                                         std::make_unique<ClockwiseRing>());
    std::ostringstream os;
    net->setTracer(std::make_unique<obs::Tracer>(
        std::make_unique<obs::JsonlSink>(os)));
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->setTracer(nullptr); // flush before reading the stream
    return os.str();
}

TEST(ParallelStep, TraceStreamBitIdenticalAcrossThreadCounts)
{
    const std::string serial = ringTrace(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, ringTrace(3));
    EXPECT_EQ(serial, ringTrace(6));
}

/** Metrics stream of a measured torus run at @p threads. */
std::vector<std::string>
torusMetrics(int threads)
{
    auto topo = std::make_shared<Topology>(makeTorus(4, 4));
    ConfigPreset preset = meshPresets3Vc()[3];
    preset.cfg.seed = 5;
    preset.cfg.threads = threads;
    auto net = preset.build(topo);
    obs::MetricsConfig mcfg;
    mcfg.interval = 50;
    mcfg.label = "parallel-identity";
    auto sink = std::make_unique<obs::MemoryMetricsSink>();
    obs::MemoryMetricsSink *mem = sink.get();
    net->enableMetrics(mcfg, std::move(sink));
    InjectorConfig icfg;
    icfg.injectionRate = 0.3;
    icfg.seed = 6;
    SyntheticInjector inj(*net, Pattern::Transpose, icfg);
    for (int i = 0; i < 200; ++i) {
        inj.tick();
        net->step();
    }
    net->beginMeasurement();
    for (int i = 0; i < 1000; ++i) {
        inj.tick();
        net->step();
    }
    net->metrics()->finish(net->now());
    return mem->lines();
}

TEST(ParallelStep, MetricsStreamBitIdenticalAcrossThreadCounts)
{
    const std::vector<std::string> serial = torusMetrics(1);
    EXPECT_GT(serial.size(), 5u);
    EXPECT_EQ(serial, torusMetrics(4));
}

/** Fault-heavy mesh run: router death exercises the staged-loss path
 *  (NIC retirement in the parallel injection phase, dead-router flit
 *  disposal in the parallel wire phase). */
std::string
faultTelemetry(int threads)
{
    auto topo = std::make_shared<Topology>(makeTorus(8, 8));
    ConfigPreset preset = meshPresets3Vc()[3];
    preset.cfg.seed = 21;
    preset.cfg.threads = threads;
    auto net = preset.build(topo);

    const char *spec = R"({
        "schema": "spin-faults/v2",
        "events": [
            {"kind": "link", "cycle": 120, "src": 27, "dst": 28},
            {"kind": "router", "cycle": 200, "router": 9},
            {"kind": "drop", "cycle": 260, "src": 2, "dst": 3},
            {"kind": "random-links", "cycle": 400, "count": 2, "seed": 7}
        ]})";
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(spec, &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    fault::FaultSchedule fs;
    std::string err;
    EXPECT_TRUE(fault::FaultSchedule::fromJson(doc, fs, err)) << err;
    net->attachFaults(std::move(fs));

    InjectorConfig icfg;
    icfg.injectionRate = 0.25;
    icfg.seed = 22;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);
    for (int i = 0; i < 1500; ++i) {
        inj.tick();
        net->step();
    }
    drain(*net, 4000); // staged losses must balance the books
    EXPECT_EQ(net->packetsInFlight(), 0u);
    return net->telemetryJson().dump(2);
}

TEST(ParallelStep, FaultRunsBitIdenticalAcrossThreadCounts)
{
    const std::string serial = faultTelemetry(1);
    EXPECT_NE(serial.find("\"routersFailed\": 1"), std::string::npos);
    EXPECT_EQ(serial, faultTelemetry(4));
}

/** Dragonfly UGAL run: source routing draws from the attachment
 *  router's rng stream inside the parallel injection phase. */
std::string
dragonflyTelemetry(int threads)
{
    auto topo = std::make_shared<Topology>(makeDragonfly(2, 4, 2, 9));
    ConfigPreset preset = dragonflyPresets3Vc()[1]; // UGAL + SPIN
    preset.cfg.seed = 13;
    preset.cfg.threads = threads;
    auto net = preset.build(topo);
    InjectorConfig icfg;
    icfg.injectionRate = 0.35;
    icfg.seed = 14;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);
    for (int i = 0; i < 2000; ++i) {
        inj.tick();
        net->step();
    }
    return net->telemetryJson().dump(2);
}

TEST(ParallelStep, DragonflyUgalBitIdenticalAcrossThreadCounts)
{
    const std::string serial = dragonflyTelemetry(1);
    EXPECT_EQ(serial, dragonflyTelemetry(3));
    EXPECT_EQ(serial, dragonflyTelemetry(8));
}

} // namespace
