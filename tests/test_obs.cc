/**
 * @file
 * Telemetry subsystem tests: the JSON document model (round-trips),
 * Stats::toJson / latencyPercentile edges, the trace sinks (JSONL and
 * Chrome trace_event), deadlock forensics cross-checked against the
 * oracle, the bench JSON export, and the shared run-flag table.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "SpinTestUtil.hh"
#include "deadlock/OracleDetector.hh"
#include "exp/RunOptions.hh"
#include "fault/FaultSchedule.hh"
#include "obs/Forensics.hh"
#include "obs/Json.hh"
#include "obs/Tracer.hh"
#include "stats/Stats.hh"
#include "topology/Mesh.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;
using obs::JsonValue;

// ---------------------------------------------------------------------
// JSON document model
// ---------------------------------------------------------------------

TEST(Json, ScalarRoundTrip)
{
    JsonValue o = JsonValue::object();
    o.set("i", JsonValue(std::uint64_t{9007199254740992ull - 1}));
    o.set("neg", JsonValue(std::int64_t{-42}));
    o.set("f", JsonValue(0.25));
    o.set("b", JsonValue(true));
    o.set("s", JsonValue("hi \"there\"\n\t\\"));
    o.set("n", JsonValue());

    std::string err;
    const JsonValue back = JsonValue::parse(o.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back["i"].asU64(), 9007199254740991ull);
    EXPECT_EQ(back["neg"].asNumber(), -42.0);
    EXPECT_EQ(back["f"].asNumber(), 0.25);
    EXPECT_TRUE(back["b"].asBool());
    EXPECT_EQ(back["s"].asString(), "hi \"there\"\n\t\\");
    EXPECT_TRUE(back["n"].isNull());
}

TEST(Json, IntegralNumbersDumpWithoutDecimalPoint)
{
    JsonValue v(std::uint64_t{123456789});
    EXPECT_EQ(v.dump(), "123456789");
    EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
}

TEST(Json, SixtyFourBitIntegersRoundTripExactly)
{
    // Cell seeds use all 64 bits; a double would round them.
    const std::uint64_t seed = 15518180158896462913ull;
    const JsonValue big(seed);
    EXPECT_EQ(big.dump(), "15518180158896462913");
    EXPECT_EQ(big.asU64(), seed);
    const JsonValue neg(std::int64_t{-1});
    EXPECT_EQ(neg.dump(), "-1");
    EXPECT_EQ(neg.asNumber(), -1.0);

    std::string err;
    const JsonValue back =
        JsonValue::parse("[15518180158896462913, -1, 2.5e3, 1e30]", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.at(0).asU64(), seed);
    EXPECT_EQ(back.at(1).asNumber(), -1.0);
    EXPECT_EQ(back.at(2).asU64(), 2500u);
    EXPECT_EQ(back.dump(), "[15518180158896462913,-1,2500,1e+30]");
}

TEST(Json, PreservesInsertionOrder)
{
    JsonValue o = JsonValue::object();
    o.set("z", JsonValue(1));
    o.set("a", JsonValue(2));
    o.set("m", JsonValue(3));
    EXPECT_EQ(o.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
}

TEST(Json, NestedArrayRoundTrip)
{
    JsonValue arr = JsonValue::array();
    for (int i = 0; i < 5; ++i) {
        JsonValue row = JsonValue::object();
        row.set("idx", JsonValue(i));
        arr.push(std::move(row));
    }
    const JsonValue back = JsonValue::parse(arr.dump(2));
    ASSERT_TRUE(back.isArray());
    ASSERT_EQ(back.size(), 5u);
    EXPECT_EQ(back.at(3)["idx"].asNumber(), 3.0);
}

TEST(Json, ParseRejectsGarbage)
{
    std::string err;
    EXPECT_TRUE(JsonValue::parse("{\"a\":}", &err).isNull());
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(JsonValue::parse("[1,2,]", &err).isNull());
    EXPECT_TRUE(JsonValue::parse("{} x", &err).isNull());
    EXPECT_TRUE(JsonValue::parse("", &err).isNull());
}

TEST(Json, FileReaderRejectsMalformedAndNullDocuments)
{
    // Every spec, schedule, trace and cache reader goes through
    // readJsonFile, so each failure must come with a reason.
    const std::string path = testing::TempDir() + "/spinnoc_read_json.json";
    const auto readBack = [&](const char *text, std::string &err) {
        std::ofstream(path) << text;
        return obs::readJsonFile(path, err);
    };
    std::string err;
    EXPECT_TRUE(readBack("{\"a\":", err).isNull());
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(readBack("null", err).isNull());
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(readBack("{\"a\": 1}", err)["a"].asU64(), 1u);
    EXPECT_TRUE(err.empty()) << err;
    std::remove(path.c_str());
    EXPECT_TRUE(obs::readJsonFile(path, err).isNull());
    EXPECT_NE(err.find(path), std::string::npos) << err;
}

TEST(Json, ParseUnicodeEscape)
{
    const JsonValue v = JsonValue::parse("\"a\\u00e9b\"");
    ASSERT_TRUE(v.isString());
    EXPECT_EQ(v.asString(), "a\xc3\xa9"
                            "b");
}

TEST(Json, CategoryMaskParsing)
{
    EXPECT_STREQ(obs::categoryName(obs::kCatFlit), "flit");
    EXPECT_STREQ(obs::categoryName(obs::kCatSpin), "spin");
    EXPECT_STREQ(obs::categoryName(obs::kCatFault), "fault");
}

// ---------------------------------------------------------------------
// Stats: percentile edges and JSON export
// ---------------------------------------------------------------------

TEST(StatsPercentile, EmptyHistogramReturnsZero)
{
    const Stats st;
    EXPECT_EQ(st.latencyPercentile(0.5), 0.0);
    EXPECT_EQ(st.latencyPercentile(1.0), 0.0);
}

TEST(StatsPercentile, SingleBucketInterpolates)
{
    Stats st;
    Packet pkt;
    pkt.sizeFlits = 1;
    pkt.createCycle = 0;
    pkt.injectCycle = 0;
    pkt.ejectCycle = 10; // bucket bit_width(10) = 4, range [8, 16)
    for (int i = 0; i < 4; ++i)
        st.onEject(pkt);
    // All mass in one bucket: percentiles interpolate inside [8, 16).
    const double p25 = st.latencyPercentile(0.25);
    const double p100 = st.latencyPercentile(1.0);
    EXPECT_GE(p25, 8.0);
    EXPECT_LT(p25, p100);
    EXPECT_LE(p100, 16.0);
}

TEST(StatsPercentile, FullPercentileHitsLastBucket)
{
    Stats st;
    Packet a;
    a.sizeFlits = 1;
    a.createCycle = 0;
    a.injectCycle = 0;
    a.ejectCycle = 2; // bucket [2,4)
    st.onEject(a);
    Packet b;
    b.sizeFlits = 1;
    b.createCycle = 0;
    b.injectCycle = 0;
    b.ejectCycle = 100; // bucket [64,128)
    st.onEject(b);
    const double p100 = st.latencyPercentile(1.0);
    EXPECT_GT(p100, 64.0);
    EXPECT_LE(p100, 128.0);
    // p=0.5 must stay within the first bucket.
    EXPECT_LE(st.latencyPercentile(0.5), 4.0);
}

TEST(StatsPercentile, OutOfRangeProbabilitiesClamp)
{
    Stats st;
    Packet p;
    p.sizeFlits = 1;
    p.createCycle = 0;
    p.injectCycle = 0;
    p.ejectCycle = 5;
    st.onEject(p);
    EXPECT_GT(st.latencyPercentile(-1.0), 0.0);
    EXPECT_EQ(st.latencyPercentile(2.0), st.latencyPercentile(1.0));
}

TEST(StatsJson, RoundTripsThroughParser)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    injectRingDeadlock(*net);
    drain(*net, 5000);
    const Stats &st = net->stats();
    ASSERT_GT(st.spins, 0u);

    std::string err;
    const JsonValue j = JsonValue::parse(st.toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(j["traffic"]["packetsEjected"].asU64(), st.packetsEjected);
    EXPECT_EQ(j["traffic"]["latencySum"].asU64(), st.latencySum);
    EXPECT_EQ(j["traffic"]["maxLatency"].asU64(), st.maxLatency);
    EXPECT_EQ(j["spin"]["spins"].asU64(), st.spins);
    EXPECT_EQ(j["spin"]["probesSent"].asU64(), st.probesSent);
    EXPECT_EQ(j["spin"]["probeDropReasons"]["stale"].asU64(),
              st.probeDropStale);
    EXPECT_EQ(j["derived"]["avgLatency"].asNumber(), st.avgLatency());
    const JsonValue &hist = j["traffic"]["latencyHist"];
    ASSERT_EQ(hist.size(), st.latencyHist.size());
    for (std::size_t i = 0; i < hist.size(); ++i)
        EXPECT_EQ(hist.at(i).asU64(), st.latencyHist[i]);
}

// ---------------------------------------------------------------------
// Trace sinks
// ---------------------------------------------------------------------

namespace
{

/** Run the canonical ring deadlock with a tracer writing into @p os. */
void
runTracedDeadlock(std::unique_ptr<obs::TraceSink> sink,
                  obs::Tracer **tracer_out = nullptr)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    auto tracer = std::make_unique<obs::Tracer>(std::move(sink));
    obs::Tracer *raw = tracer.get();
    net->setTracer(std::move(tracer));
    injectRingDeadlock(*net);
    drain(*net, 5000);
    ASSERT_EQ(net->packetsInFlight(), 0);
    if (tracer_out)
        *tracer_out = raw;
    raw->flush();
    // net (and the tracer/sink) destruct here; ChromeTraceSink's
    // destructor writes the trailer into the caller's stream.
}

} // namespace

TEST(TraceSinks, JsonlEveryLineParsesAndCoversLifecycle)
{
    std::stringstream ss;
    runTracedDeadlock(std::make_unique<obs::JsonlSink>(ss));

    std::set<std::string> names;
    std::string line;
    int lines = 0;
    while (std::getline(ss, line)) {
        ++lines;
        std::string err;
        const JsonValue j = JsonValue::parse(line, &err);
        ASSERT_TRUE(err.empty()) << "line " << lines << ": " << err;
        ASSERT_TRUE(j.isObject());
        EXPECT_NE(j.find("t"), nullptr);
        EXPECT_NE(j.find("cat"), nullptr);
        ASSERT_NE(j.find("ev"), nullptr);
        names.insert(j["ev"].asString());
    }
    EXPECT_GT(lines, 50);
    // Flit lifecycle...
    EXPECT_TRUE(names.count("inject"));
    EXPECT_TRUE(names.count("vc_alloc"));
    EXPECT_TRUE(names.count("sa_grant"));
    EXPECT_TRUE(names.count("link_traverse"));
    EXPECT_TRUE(names.count("eject"));
    // ...and the SPIN protocol.
    EXPECT_TRUE(names.count("probe_sent"));
    EXPECT_TRUE(names.count("probe_return"));
    EXPECT_TRUE(names.count("move_sent"));
    EXPECT_TRUE(names.count("move_return"));
    EXPECT_TRUE(names.count("vc_freeze"));
    EXPECT_TRUE(names.count("spin_exec"));
    EXPECT_TRUE(names.count("spin_rotate"));
}

TEST(TraceSinks, ChromeTraceIsOneValidJsonDocument)
{
    std::stringstream ss;
    runTracedDeadlock(std::make_unique<obs::ChromeTraceSink>(ss));

    std::string err;
    const JsonValue doc = JsonValue::parse(ss.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    const JsonValue &evs = doc["traceEvents"];
    ASSERT_TRUE(evs.isArray());
    ASSERT_GT(evs.size(), 50u);
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const JsonValue &e = evs.at(i);
        EXPECT_EQ(e["ph"].asString(), "X");
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("pid"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
        EXPECT_FALSE(e["name"].asString().empty());
    }
}

TEST(TraceSinks, OpenFailureReturnsNullWithoutCrashing)
{
    // The half-constructed sink is destroyed inside open(); its
    // destructor must tolerate the never-opened stream.
    EXPECT_EQ(obs::ChromeTraceSink::open("/nonexistent/dir/t.json"),
              nullptr);
    EXPECT_EQ(obs::JsonlSink::open("/nonexistent/dir/t.jsonl"), nullptr);
}

// ---------------------------------------------------------------------
// Forensics
// ---------------------------------------------------------------------

TEST(Forensics, ProbeSnapshotMatchesOracleLoop)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    net->enableForensics();
    injectRingDeadlock(*net);

    // Step until the oracle first confirms the deadlock, then capture
    // its report for cross-checking.
    OracleDetector oracle(*net);
    DeadlockReport report;
    for (int i = 0; i < 2000 && !report.deadlocked; ++i) {
        net->step();
        report = oracle.detect();
    }
    ASSERT_TRUE(report.deadlocked);
    net->forensics()->onOracleReport(*net, report, net->now());

    // Now let SPIN recover; the probe return adds a second snapshot.
    drain(*net, 5000);
    ASSERT_EQ(net->packetsInFlight(), 0);

    const auto &records = net->forensics()->records();
    ASSERT_GE(records.size(), 2u);
    const obs::LoopSnapshot &oracle_snap = records[0];
    EXPECT_EQ(oracle_snap.origin, "oracle");
    const obs::LoopSnapshot *probe_snap = nullptr;
    for (const auto &r : records) {
        if (r.origin == "probe") {
            probe_snap = &r;
            break;
        }
    }
    ASSERT_NE(probe_snap, nullptr);

    // The probe's loop is exactly the oracle's deadlocked-router set:
    // on the 1-VC ring the deadlock covers all six routers.
    std::set<RouterId> oracle_routers(oracle_snap.routers.begin(),
                                      oracle_snap.routers.end());
    std::set<RouterId> probe_routers(probe_snap->routers.begin(),
                                     probe_snap->routers.end());
    EXPECT_EQ(probe_routers, oracle_routers);
    EXPECT_EQ(probe_snap->routers.size(), 6u);
    EXPECT_EQ(probe_snap->edges.size(), 6u);

    // Edges chain into a closed cycle.
    for (std::size_t i = 0; i < probe_snap->edges.size(); ++i) {
        const auto &e = probe_snap->edges[i];
        const auto &next =
            probe_snap->edges[(i + 1) % probe_snap->edges.size()];
        EXPECT_EQ(e.downRouter, next.router);
    }

    // DOT output names every router and draws every edge.
    const std::string dot = probe_snap->toDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    for (const RouterId r : probe_snap->routers)
        EXPECT_NE(dot.find("R" + std::to_string(r)), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);

    // JSON export parses.
    std::string err;
    const JsonValue j =
        JsonValue::parse(net->forensics()->toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j["snapshots"].size(), records.size());
}

TEST(Forensics, RecordCapDropsExcess)
{
    obs::Forensics f(1);
    auto net = ringNetwork(4, DeadlockScheme::None);
    injectRingDeadlock(*net);
    for (int i = 0; i < 500; ++i)
        net->step();
    OracleDetector oracle(*net);
    const DeadlockReport report = oracle.detect();
    ASSERT_TRUE(report.deadlocked);
    f.onOracleReport(*net, report, net->now());
    f.onOracleReport(*net, report, net->now());
    EXPECT_EQ(f.records().size(), 1u);
    EXPECT_EQ(f.dropped(), 1u);
}

// ---------------------------------------------------------------------
// Network telemetry export
// ---------------------------------------------------------------------

TEST(Telemetry, DumpParsesAndMatchesLiveState)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    net->enableForensics();
    injectRingDeadlock(*net);
    drain(*net, 5000);

    std::string err;
    const JsonValue j = JsonValue::parse(net->telemetryJson().dump(2),
                                         &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j["cycle"].asU64(), net->now());
    EXPECT_EQ(j["config"]["numRouters"].asU64(),
              static_cast<std::uint64_t>(net->numRouters()));
    EXPECT_EQ(j["config"]["scheme"].asString(), "spin");
    EXPECT_EQ(j["stats"]["spin"]["spins"].asU64(), net->stats().spins);
    EXPECT_NE(j.find("forensics"), nullptr);

    const std::string path =
        testing::TempDir() + "/spinnoc_telemetry_test.json";
    ASSERT_TRUE(net->dumpTelemetry(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonValue file = JsonValue::parse(ss.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(file["cycle"].asU64(), net->now());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Bench harness: JSON export and the run-flag table
// ---------------------------------------------------------------------

TEST(BenchJson, ReporterCollectsSweepsUnderRoot)
{
    exp::RunOptions opt;
    opt.seed = 7;
    opt.seedSet = true;
    exp::BenchReporter report("unit_test_bench", opt);
    JsonValue row = JsonValue::object();
    row.set("rate", JsonValue(0.1));
    row.set("onsetRate", JsonValue(0.45));
    JsonValue rows = JsonValue::array();
    rows.push(std::move(row));
    report.add("onsetSweep", std::move(rows));

    std::string err;
    const JsonValue j = JsonValue::parse(report.root().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j["bench"].asString(), "unit_test_bench");
    EXPECT_FALSE(j["options"]["fast"].asBool());
    EXPECT_EQ(j["options"]["seed"].asU64(), 7u);
    ASSERT_EQ(j["onsetSweep"].size(), 1u);
    EXPECT_EQ(j["onsetSweep"].at(0)["rate"].asNumber(), 0.1);
    EXPECT_EQ(j["onsetSweep"].at(0)["onsetRate"].asNumber(), 0.45);
}

namespace
{

/** Every long name of the run-flag table. */
std::vector<std::string>
allRunFlags()
{
    std::vector<std::string> names;
    for (const exp::ArgSpec &spec : exp::RunOptions().flags())
        names.push_back(spec.name.substr(spec.name.rfind(' ') + 1));
    return names;
}

exp::RunOptions
parseArgs(std::vector<const char *> argv, bool &ok, std::string &err,
          const std::vector<std::string> &accepted = allRunFlags())
{
    argv.insert(argv.begin(), "bench");
    exp::RunOptions o;
    ok = exp::parseArgs(static_cast<int>(argv.size()),
                        const_cast<char **>(argv.data()),
                        o.flags(accepted), err);
    return o;
}

} // namespace

TEST(BenchOptions, RejectsUnknownFlag)
{
    bool ok = true;
    std::string err;
    parseArgs({"--bogus"}, ok, err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--bogus"), std::string::npos);
}

TEST(BenchOptions, RejectsFlagTheBenchDoesNotRead)
{
    bool ok = true;
    std::string err;
    parseArgs({"--fast", "--json", "x.json"}, ok, err,
              {"--fast", "--seed"});
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--json"), std::string::npos) << err;

    parseArgs({"--fast", "--seed", "3"}, ok, err, {"--fast", "--seed"});
    EXPECT_TRUE(ok) << err;
}

TEST(BenchOptions, RejectsMissingValue)
{
    bool ok = true;
    std::string err;
    parseArgs({"--seed"}, ok, err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--seed"), std::string::npos);
}

TEST(BenchOptions, ParsesAllFlags)
{
    bool ok = false;
    std::string err;
    const exp::RunOptions o = parseArgs(
        {"--fast", "--seed", "77", "--threads", "4", "--reliability",
         "--json", "out.json", "--metrics", "m.jsonl",
         "--metrics-interval", "128", "--profile", "--trace", "t.json",
         "--faults", "f.json", "--wall-limit", "9", "--audit", "64"},
        ok, err);
    ASSERT_TRUE(ok) << err;
    EXPECT_TRUE(o.fast);
    EXPECT_TRUE(o.seedSet);
    EXPECT_EQ(o.seed, 77u);
    EXPECT_EQ(o.threads, 4u);
    EXPECT_TRUE(o.reliability);
    EXPECT_EQ(o.jsonPath, "out.json");
    EXPECT_EQ(o.metricsPath, "m.jsonl");
    EXPECT_EQ(o.metricsInterval, 128u);
    EXPECT_TRUE(o.profile);
    EXPECT_EQ(o.tracePath, "t.json");
    EXPECT_EQ(o.faultsPath, "f.json");
    EXPECT_EQ(o.wallLimit, 9u);
    EXPECT_EQ(o.auditInterval, 64u);

    // -t abbreviates --threads wherever --threads is accepted.
    EXPECT_EQ(parseArgs({"-t4"}, ok, err, {"--threads"}).threads, 4u);
    EXPECT_TRUE(ok) << err;
}

TEST(BenchOptions, SeedAndReliabilityApplyToPreset)
{
    bool ok = false;
    std::string err;
    const exp::RunOptions o =
        parseArgs({"--seed", "5", "--reliability"}, ok, err);
    ASSERT_TRUE(ok) << err;

    ConfigPreset p = meshPresets3Vc()[0];
    o.apply(p.cfg);
    EXPECT_EQ(p.cfg.seed, 5u);
    EXPECT_TRUE(p.cfg.reliability.enabled);
    EXPECT_EQ(p.cfg.reliability.ackTimeout,
              ReliabilityConfig{}.ackTimeout); // knobs keep defaults

    exp::RunOptions no_seed;
    p = meshPresets3Vc()[0];
    p.cfg.seed = 99;
    no_seed.apply(p.cfg);
    EXPECT_EQ(p.cfg.seed, 99u); // no --seed: preset untouched
    EXPECT_FALSE(p.cfg.reliability.enabled);
}

TEST(BenchOptions, UsageListsEveryFlagOnce)
{
    exp::RunOptions o;
    const std::vector<exp::ArgSpec> flags = o.flags();
    const std::string text = exp::usage(flags);
    for (const exp::ArgSpec &spec : flags) {
        // A row starts its line: two spaces, the name, then the value
        // placeholder or the padding.
        int rows = 0;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.rfind("  " + spec.name + " ", 0) == 0)
                ++rows;
        }
        EXPECT_EQ(rows, 1) << spec.name << " in\n" << text;
    }
    // ...and nothing else does: help continuation lines are indented.
    std::size_t heads = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
        heads += line.rfind("  -", 0) == 0 ? 1 : 0;
    EXPECT_EQ(heads, flags.size()) << text;
}

// ---------------------------------------------------------------------
// Disabled-path guarantee
// ---------------------------------------------------------------------

TEST(Telemetry, DisabledTracingChangesNothing)
{
    // Same workload with and without telemetry: identical simulation
    // outcome (tracing must be purely observational).
    auto plain = ringNetwork(6, DeadlockScheme::Spin);
    injectRingDeadlock(*plain);
    const Cycle t_plain = drain(*plain, 5000);

    std::stringstream ss;
    auto traced = ringNetwork(6, DeadlockScheme::Spin);
    traced->setTracer(std::make_unique<obs::Tracer>(
        std::make_unique<obs::JsonlSink>(ss)));
    traced->enableForensics();
    injectRingDeadlock(*traced);
    const Cycle t_traced = drain(*traced, 5000);

    EXPECT_EQ(t_plain, t_traced);
    EXPECT_EQ(plain->stats().spins, traced->stats().spins);
    EXPECT_EQ(plain->stats().latencySum, traced->stats().latencySum);
    EXPECT_EQ(plain->stats().probesSent, traced->stats().probesSent);
}

// ---------------------------------------------------------------------
// Deterministic Stats JSON
// ---------------------------------------------------------------------

TEST(StatsJson, KeyOrderIsDeterministic)
{
    // Two independent identical runs must serialize byte-identically:
    // downstream tools (spin_report, check_sweep_baseline) diff stats
    // dumps textually, so key order is part of the contract.
    const auto run = [] {
        auto net = ringNetwork(6, DeadlockScheme::Spin);
        injectRingDeadlock(*net);
        drain(*net, 5000);
        return net->stats().toJson().dump();
    };
    const std::string a = run();
    EXPECT_EQ(a, run());

    // The top-level sections keep their documented insertion order.
    std::string err;
    const JsonValue j = JsonValue::parse(a, &err);
    ASSERT_TRUE(err.empty()) << err;
    std::vector<std::string> keys;
    for (const auto &m : j.members())
        keys.push_back(m.first);
    const std::vector<std::string> expected = {
        "traffic", "spin", "baseline", "faults", "reliability",
        "derived", "windowStart"};
    EXPECT_EQ(keys, expected);

    // Percentiles on a run with no retired packets stay well-defined.
    const Stats empty;
    EXPECT_EQ(empty.latencyPercentile(0.5), 0.0);
    EXPECT_EQ(empty.toJson()["derived"]["p99Latency"].asNumber(), 0.0);
}

// ---------------------------------------------------------------------
// Warmup reset semantics
// ---------------------------------------------------------------------

namespace
{

/** The ring deadlock, a warmup reset, and the deadlock again at a
 *  given step-loop thread count, reduced to its full telemetry
 *  document. */
std::string
warmupResetTelemetry(int threads)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin, 1, 32, threads);
    injectRingDeadlock(*net);
    drain(*net, 5000);
    net->beginMeasurement();
    injectRingDeadlock(*net);
    drain(*net, 5000);
    return net->telemetryJson().dump(2);
}

} // namespace

TEST(Telemetry, WarmupResetIdenticalAcrossThreadCounts)
{
    // Counters and link usage restart at the warmup boundary; under
    // sharded stepping the telemetry document must come out
    // byte-identical for any thread count (docs/SCALING.md).
    const std::string base = warmupResetTelemetry(1);
    EXPECT_EQ(warmupResetTelemetry(3), base);
    EXPECT_EQ(warmupResetTelemetry(6), base);
}

// ---------------------------------------------------------------------
// Fault-category tracing
// ---------------------------------------------------------------------

TEST(Tracer, FaultCategoryMaskPassesInjectorEvents)
{
    std::string perr;
    const JsonValue doc = JsonValue::parse(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "corrupt", "cycle": 4,
                        "src": 0, "dst": 1}]})",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    fault::FaultSchedule fs;
    std::string err;
    ASSERT_TRUE(fault::FaultSchedule::fromJson(doc, fs, err)) << err;

    std::stringstream ss;
    {
        auto net = ringNetwork(6, DeadlockScheme::Spin);
        net->setTracer(std::make_unique<obs::Tracer>(
            std::make_unique<obs::JsonlSink>(ss)));
        net->attachFaults(std::move(fs));
        injectRingDeadlock(*net);
        drain(*net, 5000);
        EXPECT_GT(net->trace()->recorded(), 0u);
    }
    // Consumers select a category by each line's "cat".
    int lines = 0, faultLines = 0;
    bool saw_arm = false;
    std::string line;
    while (std::getline(ss, line)) {
        ++lines;
        const JsonValue j = JsonValue::parse(line);
        if (j["cat"].asString() != "fault")
            continue;
        ++faultLines;
        if (j["ev"].asString() == "corrupt_arm")
            saw_arm = true;
    }
    EXPECT_GT(faultLines, 0);
    EXPECT_GT(lines, faultLines); // flit/spin/link events share the sink
    EXPECT_TRUE(saw_arm); // the schedule application itself is traced
}

// ---------------------------------------------------------------------
// Forensics on a clean run
// ---------------------------------------------------------------------

TEST(Forensics, CleanRunExportsEmptyButValidJson)
{
    auto net = ringNetwork(6, DeadlockScheme::Spin);
    net->enableForensics();
    // Light, non-deadlocking traffic: one short packet.
    net->offerPacket(net->makePacket(0, 2, 0, 3));
    drain(*net, 5000);
    EXPECT_EQ(net->packetsInFlight(), 0);
    EXPECT_EQ(net->stats().spins, 0u);

    const obs::Forensics *f = net->forensics();
    ASSERT_NE(f, nullptr);
    std::string err;
    const JsonValue j = JsonValue::parse(f->toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j["dropped"].asU64(), 0u);
    ASSERT_NE(j.find("snapshots"), nullptr);
    EXPECT_EQ(j["snapshots"].size(), 0u);
}
