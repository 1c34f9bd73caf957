/**
 * @file
 * Windowed-metrics engine, counter-table and self-profiler tests: the
 * golden Stats/metrics layout, the spin-metrics/v2 stream contract
 * (self-describing records, header before windows, contiguous seq,
 * counter-delta correctness, the hand-rolled serializer's
 * byte-compatibility with JsonValue::dump), warmup reset semantics,
 * run-to-run determinism, Stats merge and reset driven by the counter
 * table, PhaseProfiler accumulation and merge, and campaign-level
 * capture (per-cell streams bit-identical for any worker count).
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "SpinTestUtil.hh"
#include "exp/Campaign.hh"
#include "exp/SweepSpec.hh"
#include "obs/Metrics.hh"
#include "obs/Profiler.hh"
#include "stats/Stats.hh"

using namespace spin;
using obs::JsonValue;

namespace fs = std::filesystem;

namespace
{

/** Parse every line of a captured stream; hard-fails on bad JSON. */
std::vector<JsonValue>
parseLines(const std::vector<std::string> &lines)
{
    std::vector<JsonValue> out;
    for (const std::string &line : lines) {
        std::string err;
        JsonValue v = JsonValue::parse(line, &err);
        EXPECT_TRUE(err.empty()) << err << " in: " << line;
        out.push_back(std::move(v));
    }
    return out;
}

/** Run the canonical ring-deadlock workload with metrics attached and
 *  return the captured stream. */
std::vector<std::string>
captureRun(Cycle interval, const std::string &label)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    obs::MetricsConfig mcfg;
    mcfg.interval = interval;
    mcfg.label = label;
    auto sink = std::make_unique<obs::MemoryMetricsSink>();
    obs::MemoryMetricsSink *mem = sink.get();
    net->enableMetrics(mcfg, std::move(sink));
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->metrics()->finish(net->now());
    return mem->lines();
}

} // namespace

// ---------------------------------------------------------------------
// Golden layout: Stats JSON paths and the metrics instrument lists
// ---------------------------------------------------------------------

namespace
{

/** Every leaf path of @p v in document order ("a.b.c"); arrays are
 *  leaves. */
void
leafPaths(const JsonValue &v, const std::string &prefix,
          std::vector<std::string> &out)
{
    if (!v.isObject()) {
        out.push_back(prefix);
        return;
    }
    for (const auto &[key, child] : v.members())
        leafPaths(child, prefix.empty() ? key : prefix + "." + key, out);
}

std::vector<std::string>
strings(const JsonValue &arr)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push_back(arr.at(i).asString());
    return out;
}

} // namespace

TEST(CounterTable, GoldenJsonPathsAndMetricsLists)
{
    // Pins the exported layout that downstream tools, the sweep
    // digests and the benchmark's model-b2 digest read: every Stats
    // JSON path in order, and the metrics header's instrument lists.
    std::vector<std::string> paths;
    leafPaths(Stats().toJson(), "", paths);
    const std::vector<std::string> wantPaths = {
        "traffic.packetsCreated",
        "traffic.packetsInjected",
        "traffic.packetsEjected",
        "traffic.flitsCreated",
        "traffic.flitsInjected",
        "traffic.flitsEjected",
        "traffic.latencySum",
        "traffic.netLatencySum",
        "traffic.hopsSum",
        "traffic.maxLatency",
        "traffic.spinsOfEjected",
        "traffic.latencyHist",
        "spin.probesSent",
        "spin.probesForked",
        "spin.probesDropped",
        "spin.probesReturned",
        "spin.probeDropReasons.priority",
        "spin.probeDropReasons.inactive",
        "spin.probeDropReasons.noDep",
        "spin.probeDropReasons.hops",
        "spin.probeDropReasons.stale",
        "spin.movesSent",
        "spin.movesDropped",
        "spin.movesReturned",
        "spin.probeMovesSent",
        "spin.probeMovesDropped",
        "spin.probeMovesReturned",
        "spin.killMovesSent",
        "spin.smContentionDrops",
        "spin.spins",
        "spin.falsePositiveSpins",
        "spin.spinsCancelled",
        "spin.packetsRotated",
        "baseline.bubbleRecoveries",
        "faults.linksFailed",
        "faults.routersFailed",
        "faults.transientFaults",
        "faults.packetsUnroutable",
        "faults.packetsRerouted",
        "faults.packetsLostToFaults",
        "faults.flitsLostToFaults",
        "faults.packetsCorrupted",
        "faults.packetsDroppedAtNic",
        "reliability.crcFails",
        "reliability.linkRetries",
        "reliability.retransmits",
        "reliability.dupDrops",
        "reliability.recoveredPackets",
        "reliability.packetsAbandoned",
        "reliability.watchdogAlarms",
        "derived.avgLatency",
        "derived.avgNetLatency",
        "derived.avgHops",
        "derived.p50Latency",
        "derived.p99Latency",
        "windowStart",
    };
    EXPECT_EQ(paths, wantPaths);

    const std::vector<std::string> lines = captureRun(32, "");
    ASSERT_FALSE(lines.empty());
    const JsonValue header = JsonValue::parse(lines.front());
    ASSERT_EQ(header["kind"].asString(), "header");
    const std::vector<std::string> wantCounters = {
        "traffic.packetsInjected",
        "traffic.packetsEjected",
        "traffic.flitsInjected",
        "traffic.flitsEjected",
        "traffic.latencySum",
        "traffic.hopsSum",
        "spin.probesSent",
        "spin.probesForked",
        "spin.probesDropped",
        "spin.probesReturned",
        "spin.movesSent",
        "spin.probeMovesSent",
        "spin.killMovesSent",
        "spin.spins",
        "spin.falsePositiveSpins",
        "spin.spinsCancelled",
        "spin.packetsRotated",
        "baseline.bubbleRecoveries",
        "faults.linksFailed",
        "faults.routersFailed",
        "faults.transientFaults",
        "faults.packetsUnroutable",
        "faults.packetsRerouted",
        "faults.packetsLostToFaults",
        "faults.packetsCorrupted",
        "faults.packetsDroppedAtNic",
        "reliability.crcFails",
        "reliability.linkRetries",
        "reliability.retransmits",
        "reliability.dupDrops",
        "reliability.recoveredPackets",
        "reliability.packetsAbandoned",
        "reliability.watchdogAlarms",
    };
    EXPECT_EQ(strings(header["counters"]), wantCounters);
    const std::vector<std::string> wantGauges = {
        "net.packetsInFlight", "nic.queuedPackets",  "spin.smsInFlight",
        "faults.pendingEvents", "occupancy.vnet0",   "occupancy.total",
    };
    EXPECT_EQ(strings(header["gauges"]), wantGauges);
    EXPECT_EQ(strings(header["histograms"]),
              std::vector<std::string>{"latency"});
}

TEST(MetricsHistogram, PercentileEdges)
{
    EXPECT_EQ(obs::histogramPercentile({}, 0.5), 0.0);
    EXPECT_EQ(obs::histogramPercentile({0, 0, 0}, 0.99), 0.0);
    // All mass in bucket 3 = [4, 8): every percentile interpolates
    // inside it.
    const std::vector<std::uint64_t> one{0, 0, 0, 8};
    EXPECT_GE(obs::histogramPercentile(one, 0.01), 4.0);
    EXPECT_LE(obs::histogramPercentile(one, 1.0), 8.0);
    EXPECT_LT(obs::histogramPercentile(one, 0.25),
              obs::histogramPercentile(one, 0.75));
}

// ---------------------------------------------------------------------
// Stream contract
// ---------------------------------------------------------------------

TEST(NetworkMetrics, StreamIsSelfDescribingAndOrdered)
{
    const std::vector<std::string> lines = captureRun(32, "unit-cell");
    const std::vector<JsonValue> recs = parseLines(lines);
    ASSERT_GE(recs.size(), 3u); // header + >=1 window + finish

    // Every record is self-describing.
    for (const JsonValue &r : recs) {
        EXPECT_EQ(r["schema"].asString(), "spin-metrics/v2");
        EXPECT_EQ(r["cell"].asString(), "unit-cell");
        EXPECT_FALSE(r["kind"].asString().empty());
    }

    const JsonValue &header = recs.front();
    ASSERT_EQ(header["kind"].asString(), "header");
    EXPECT_EQ(header["interval"].asU64(), 32u);
    EXPECT_GT(header["counters"].size(), 0u);
    EXPECT_GT(header["gauges"].size(), 0u);
    EXPECT_EQ(header["config"]["numRouters"].asU64(), 6u);

    const JsonValue &fin = recs.back();
    ASSERT_EQ(fin["kind"].asString(), "finish");

    std::uint64_t seq = 0, windows = 0;
    Cycle lastEnd = 0;
    for (const JsonValue &r : recs) {
        if (r["kind"].asString() != "window")
            continue;
        EXPECT_EQ(r["seq"].asU64(), seq++);
        const Cycle start = r["cycleStart"].asU64();
        const Cycle end = r["cycleEnd"].asU64();
        EXPECT_LT(start, end);
        EXPECT_GE(start, lastEnd);
        lastEnd = end;
        // Window instrument keys match the header's lists exactly.
        EXPECT_EQ(r["counters"].size(), header["counters"].size());
        EXPECT_EQ(r["gauges"].size(), header["gauges"].size());
        for (std::size_t i = 0; i < header["counters"].size(); ++i)
            EXPECT_FALSE(
                r["counters"][header["counters"].at(i).asString()].isNull());
        EXPECT_FALSE(r["derived"]["throughput"].isNull());
        EXPECT_FALSE(r["derived"]["latencyP99"].isNull());
        ++windows;
    }
    EXPECT_EQ(fin["windows"].asU64(), windows);
}

TEST(NetworkMetrics, HandSerializerMatchesJsonValueDump)
{
    // emitWindow() hand-rolls its JSON for speed; parsing a line and
    // re-dumping it through JsonValue must reproduce the bytes.
    for (const std::string &line : captureRun(32, "roundtrip")) {
        std::string err;
        const JsonValue v = JsonValue::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(v.dump(0), line);
    }
}

TEST(NetworkMetrics, WindowCounterDeltasSumToCumulative)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    auto sink = std::make_unique<obs::MemoryMetricsSink>();
    obs::MemoryMetricsSink *mem = sink.get();
    net->enableMetrics(obs::MetricsConfig{16, ""}, std::move(sink));
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->metrics()->finish(net->now());

    std::uint64_t ejected = 0, spins = 0;
    for (const JsonValue &r : parseLines(mem->lines())) {
        if (r["kind"].asString() != "window")
            continue;
        ejected += r["counters"]["traffic.packetsEjected"].asU64();
        spins += r["counters"]["spin.spins"].asU64();
    }
    EXPECT_EQ(ejected, net->stats().packetsEjected);
    EXPECT_EQ(spins, net->stats().spins);
    EXPECT_GT(spins, 0u); // the ring deadlock forces at least one spin
}

TEST(NetworkMetrics, DeterministicAcrossRuns)
{
    EXPECT_EQ(captureRun(32, "det"), captureRun(32, "det"));
}

TEST(NetworkMetrics, FinishIsIdempotentAndEmitsPartialWindow)
{
    auto net = ringNetwork(4, DeadlockScheme::None);
    auto sink = std::make_unique<obs::MemoryMetricsSink>();
    obs::MemoryMetricsSink *mem = sink.get();
    net->enableMetrics(obs::MetricsConfig{1000, ""}, std::move(sink));
    injectRingDeadlock(*net);
    for (int i = 0; i < 40; ++i) // far less than one full window
        net->step();
    net->metrics()->finish(net->now());
    net->metrics()->finish(net->now()); // no-op
    const std::vector<JsonValue> recs = parseLines(mem->lines());
    // header, exactly one (partial) window, one finish.
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[1]["kind"].asString(), "window");
    EXPECT_EQ(recs[1]["cycleEnd"].asU64(), 40u);
    EXPECT_EQ(recs[2]["kind"].asString(), "finish");
    EXPECT_EQ(net->metrics()->windowsEmitted(), 1u);
}

TEST(NetworkMetrics, WarmupResetRebaselinesWindows)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    auto sink = std::make_unique<obs::MemoryMetricsSink>();
    obs::MemoryMetricsSink *mem = sink.get();
    net->enableMetrics(obs::MetricsConfig{32, ""}, std::move(sink));

    // Warmup traffic, then the explicit warmup boundary.
    injectRingDeadlock(*net);
    drain(*net, 5000);
    ASSERT_GT(net->stats().packetsEjected, 0u);
    net->beginMeasurement();

    // Measured traffic.
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->metrics()->finish(net->now());

    const std::vector<JsonValue> recs = parseLines(mem->lines());
    std::size_t beginIdx = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (recs[i]["kind"].asString() == "measurement-begin")
            beginIdx = i;
    }
    ASSERT_GT(beginIdx, 0u) << "no measurement-begin marker";

    // Deltas after the marker cover exactly the measured window: they
    // sum to the post-reset cumulative Stats, with no warmup leakage.
    std::uint64_t measured = 0;
    for (std::size_t i = beginIdx + 1; i < recs.size(); ++i) {
        if (recs[i]["kind"].asString() == "window")
            measured += recs[i]["counters"]["traffic.packetsEjected"]
                            .asU64();
    }
    EXPECT_EQ(measured, net->stats().packetsEjected);
}

namespace
{

/** The WarmupResetRebaselinesWindows workload, parameterized on the
 *  step-loop thread count, as a captured stream. */
std::vector<std::string>
warmupResetCapture(int threads)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin, 1, 32, threads);
    auto sink = std::make_unique<obs::MemoryMetricsSink>();
    obs::MemoryMetricsSink *mem = sink.get();
    net->enableMetrics(obs::MetricsConfig{32, ""}, std::move(sink));
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->beginMeasurement();
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->metrics()->finish(net->now());
    return mem->lines();
}

} // namespace

TEST(NetworkMetrics, WarmupResetIdenticalAcrossThreadCounts)
{
    // The warmup boundary re-baselines every counter delta; sharded
    // stepping stages per-thread Stats around that reset, so the
    // emitted stream must stay byte-identical for any thread count
    // (docs/SCALING.md determinism contract).
    const std::vector<std::string> base = warmupResetCapture(1);
    bool sawBegin = false;
    for (const std::string &line : base)
        sawBegin |= line.find("measurement-begin") != std::string::npos;
    ASSERT_TRUE(sawBegin) << "stream never crossed the warmup boundary";
    EXPECT_EQ(warmupResetCapture(2), base);
    EXPECT_EQ(warmupResetCapture(4), base);
}

// ---------------------------------------------------------------------
// Stats merge
// ---------------------------------------------------------------------

namespace
{

/**
 * Walk @p one (a lone Stats::toJson) against @p two (the same Stats
 * merged twice into a fresh one) asserting the mergeFrom contract per
 * leaf: counters double, maxLatency maxes, windowStart is untouched,
 * the derived ratios are scale-invariant. Any numeric leaf that is
 * zero in @p one means toJson() exports something MergesEveryField
 * does not set.
 */
void
checkDoubled(const JsonValue &one, const JsonValue &two,
             const std::string &path)
{
    if (one.isObject()) {
        ASSERT_TRUE(two.isObject()) << path;
        ASSERT_EQ(one.members().size(), two.members().size()) << path;
        for (std::size_t i = 0; i < one.members().size(); ++i) {
            const auto &m = one.members()[i];
            ASSERT_EQ(two.members()[i].first, m.first) << path;
            checkDoubled(m.second, two.members()[i].second,
                         path + "/" + m.first);
        }
        return;
    }
    if (one.isArray()) {
        ASSERT_TRUE(two.isArray()) << path;
        ASSERT_EQ(one.size(), two.size()) << path;
        for (std::size_t i = 0; i < one.size(); ++i)
            checkDoubled(one.at(i), two.at(i),
                         path + "[" + std::to_string(i) + "]");
        return;
    }
    ASSERT_TRUE(one.isNumber()) << path;
    if (path == "/windowStart") {
        EXPECT_EQ(two.asNumber(), 0.0) << path << ": merge must not "
            "touch the target's window start";
        return;
    }
    if (path.rfind("/derived/", 0) == 0) {
        // sum/count ratios and histogram percentiles are invariant
        // under doubling both operands.
        EXPECT_DOUBLE_EQ(two.asNumber(), one.asNumber()) << path;
        return;
    }
    EXPECT_GT(one.asNumber(), 0.0)
        << path << ": exported but not a counter-table row";
    if (path == "/traffic/maxLatency")
        EXPECT_EQ(two.asNumber(), one.asNumber()) << path;
    else
        EXPECT_EQ(two.asNumber(), 2.0 * one.asNumber()) << path;
}

} // namespace

TEST(StatsMerge, MergesEveryField)
{
    // Give every table row a distinct nonzero value; the JSON walk
    // then checks every exported leaf merged as its row says.
    Stats proto;
    std::uint64_t v = 0;
    for (const StatsCounter &c : kStatsCounters)
        proto.*c.field = ++v;
    proto.latencyHist = {1, 2, 3, 4};
    proto.windowStart = ++v;

    Stats merged;
    merged.mergeFrom(proto);
    merged.mergeFrom(proto);
    checkDoubled(proto.toJson(), merged.toJson(), "");
}

TEST(StatsReset, ZeroesEveryRowButTheStructuralFaultCounters)
{
    Stats st;
    for (const StatsCounter &c : kStatsCounters)
        st.*c.field = 7;
    st.latencyHist = {1, 2, 3};
    st.reset(42);
    for (const StatsCounter &c : kStatsCounters) {
        const bool kept = c.field == &Stats::linksFailed ||
                          c.field == &Stats::routersFailed;
        EXPECT_EQ(st.*c.field, kept ? 7u : 0u) << c.path;
    }
    EXPECT_TRUE(st.latencyHist.empty());
    EXPECT_EQ(st.windowStart, 42u);
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

TEST(PhaseProfiler, AccumulatesAndMerges)
{
    obs::PhaseProfiler a;
    a.add(obs::Phase::Routing, 100);
    a.add(obs::Phase::Routing, 50);
    a.add(obs::Phase::Wires, 25);
    a.onCycle();
    EXPECT_EQ(a.phaseNs(obs::Phase::Routing), 150u);
    EXPECT_EQ(a.totalNs(), 175u);
    EXPECT_EQ(a.cycles(), 1u);

    obs::PhaseProfiler b;
    b.add(obs::Phase::Wires, 75);
    b.onCycle();
    a.merge(b);
    EXPECT_EQ(a.phaseNs(obs::Phase::Wires), 100u);
    EXPECT_EQ(a.cycles(), 2u);

    const JsonValue j = a.toJson();
    EXPECT_EQ(j["schema"].asString(), "spin-profile/v1");
    EXPECT_EQ(j["cycles"].asU64(), 2u);
    EXPECT_EQ(j["phases"]["routing"]["ns"].asU64(), 150u);
}

TEST(PhaseProfiler, NetworkAttributesWallClockWhenEnabled)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    net->enableProfiler();
    injectRingDeadlock(*net);
    drain(*net, 5000);
    ASSERT_NE(net->profiler(), nullptr);
    EXPECT_GT(net->profiler()->cycles(), 0u);
    EXPECT_GT(net->profiler()->totalNs(), 0u);
    // The deadlock workload must exercise routing and switch alloc.
    EXPECT_GT(net->profiler()->phaseNs(obs::Phase::Routing), 0u);
    EXPECT_GT(net->profiler()->phaseNs(obs::Phase::SwitchAlloc), 0u);
}

// ---------------------------------------------------------------------
// Campaign capture
// ---------------------------------------------------------------------

namespace
{

exp::SweepSpec
metricsSpec()
{
    std::string err;
    JsonValue doc = JsonValue::parse(
        R"({"name": "metrics-unit", "topology": "mesh4x4",
            "presets": ["MinAdaptive_3VC_SPIN"],
            "patterns": ["uniform-random"],
            "rates": [0.1, 0.3], "seeds": [1, 2],
            "warmup": 50, "measure": 150, "latencyCap": 200.0})",
        &err);
    EXPECT_TRUE(err.empty()) << err;
    exp::SweepSpec s;
    EXPECT_TRUE(exp::SweepSpec::fromJson(doc, s, err)) << err;
    return s;
}

} // namespace

TEST(CampaignMetrics, RunCellRecordsTaggedMetricsAndProfile)
{
    const exp::SweepSpec spec = metricsSpec();
    const std::vector<exp::Cell> cells = spec.expand();
    ASSERT_FALSE(cells.empty());
    std::string terr;
    auto topo = exp::makeTopologyByName(spec.topology, terr);
    ASSERT_TRUE(topo) << terr;

    // runCell records what the run flags ask for; only Campaign::run
    // writes the combined file, so the path is never opened here.
    exp::RunOptions run;
    run.metricsPath = "unused.jsonl";
    run.metricsInterval = 32;
    run.profile = true;
    exp::Recording rec;
    exp::Campaign::runCell(spec, cells[0], topo, run, {}, &rec);

    ASSERT_FALSE(rec.metrics.empty());
    for (const JsonValue &r : parseLines(rec.metrics))
        EXPECT_EQ(r["cell"].asString(), cells[0].id);
    EXPECT_GT(rec.profile.cycles(), 0u);
}

TEST(CampaignMetrics, CombinedFileBitIdenticalAcrossWorkerCounts)
{
    const exp::SweepSpec spec = metricsSpec();
    const fs::path dir =
        fs::path(testing::TempDir()) / "spinnoc_metrics_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto runWith = [&](int jobs, const char *name) {
        exp::CampaignOptions opt;
        opt.jobs = jobs;
        opt.run.metricsPath = (dir / name).string();
        opt.run.metricsInterval = 32;
        exp::Campaign c(spec, opt);
        c.run();
        std::ifstream in(opt.run.metricsPath);
        EXPECT_TRUE(in.good()) << opt.run.metricsPath;
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string serial = runWith(1, "j1.jsonl");
    const std::string pooled = runWith(2, "j2.jsonl");
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, pooled);

    // One stream per cell, each with its header, in expansion order.
    std::istringstream in(serial);
    std::string line;
    std::vector<std::string> headerCells;
    while (std::getline(in, line)) {
        const JsonValue r = JsonValue::parse(line);
        if (r["kind"].asString() == "header")
            headerCells.push_back(r["cell"].asString());
    }
    const std::vector<exp::Cell> cells = spec.expand();
    ASSERT_EQ(headerCells.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(headerCells[i], cells[i].id);
    fs::remove_all(dir);
}
