/**
 * @file
 * Tests for the experiment-campaign subsystem (src/exp): spec parsing
 * and validation, the per-cell seed derivation, the ArgParse helper,
 * and the Campaign determinism contract -- the aggregated results are
 * bit-identical for any worker count and across resume.
 */

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/ArgParse.hh"
#include "exp/Campaign.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultSchedule.hh"
#include "verify/Trace.hh"

namespace spin::exp
{
namespace
{

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

SweepSpec
parseSpec(const char *json, std::string &err)
{
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(json, &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    SweepSpec s;
    EXPECT_TRUE(SweepSpec::fromJson(doc, s, err)) << err;
    return s;
}

bool
specFails(const char *json, const char *want_in_err)
{
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(json, &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    SweepSpec s;
    std::string err;
    if (SweepSpec::fromJson(doc, s, err))
        return false;
    EXPECT_NE(err.find(want_in_err), std::string::npos)
        << "error '" << err << "' does not mention '" << want_in_err
        << "'";
    return true;
}

TEST(SweepSpecTest, ParsesExplicitRatesAndSeeds)
{
    std::string err;
    const SweepSpec s = parseSpec(
        R"({"name": "t", "topology": "mesh4x4",
            "presets": ["WestFirst_3VC"],
            "patterns": ["uniform-random", "transpose"],
            "rates": [0.1, 0.2], "seeds": [1, 7],
            "warmup": 100, "measure": 200, "latencyCap": 50.0,
            "seedBase": 9})",
        err);
    EXPECT_EQ(s.name, "t");
    EXPECT_EQ(s.patterns.size(), 2u);
    EXPECT_EQ(s.rates.size(), 2u);
    EXPECT_EQ(s.seeds, (std::vector<std::uint64_t>{1, 7}));
    EXPECT_EQ(s.warmup, 100u);
    EXPECT_EQ(s.measure, 200u);
    EXPECT_DOUBLE_EQ(s.latencyCap, 50.0);
    EXPECT_EQ(s.seedBase, 9u);
    EXPECT_EQ(s.expand().size(), 1u * 2 * 2 * 2);
}

TEST(SweepSpecTest, RateLadderExpandsInclusive)
{
    std::string err;
    const SweepSpec s = parseSpec(
        R"({"name": "t", "topology": "mesh4x4",
            "presets": ["WestFirst_3VC"], "patterns": ["uniform-random"],
            "rates": {"lo": 0.1, "hi": 0.5, "points": 5}})",
        err);
    ASSERT_EQ(s.rates.size(), 5u);
    EXPECT_DOUBLE_EQ(s.rates.front(), 0.1);
    EXPECT_DOUBLE_EQ(s.rates.back(), 0.5);
}

TEST(SweepSpecTest, RejectsBadDocuments)
{
    EXPECT_TRUE(specFails(R"({"topology": "mesh4x4",
        "presets": ["WestFirst_3VC"], "patterns": ["uniform-random"],
        "rates": [0.1]})", "name"));
    EXPECT_TRUE(specFails(R"({"name": "t", "topology": "mesh4x4",
        "presets": ["NoSuchPreset"], "patterns": ["uniform-random"],
        "rates": [0.1]})", "NoSuchPreset"));
    EXPECT_TRUE(specFails(R"({"name": "t", "topology": "blob9",
        "presets": ["WestFirst_3VC"], "patterns": ["uniform-random"],
        "rates": [0.1]})", "topology"));
    EXPECT_TRUE(specFails(R"({"name": "t", "topology": "mesh4x4",
        "presets": ["WestFirst_3VC"], "patterns": ["no-such-pattern"],
        "rates": [0.1]})", "pattern"));
    EXPECT_TRUE(specFails(R"({"name": "t", "topology": "mesh4x4",
        "presets": ["WestFirst_3VC"], "patterns": ["uniform-random"],
        "rates": [1.5]})", "rates"));
    EXPECT_TRUE(specFails(R"({"name": "t", "topology": "mesh4x4",
        "presets": ["WestFirst_3VC"], "patterns": ["uniform-random"],
        "rates": {"lo": 0.5, "hi": 0.1, "points": 3}})", "ladder"));
    EXPECT_TRUE(specFails(R"({"name": "t", "topology": "mesh4x4",
        "presets": ["WestFirst_3VC"], "patterns": ["uniform-random"],
        "rates": [0.1], "measure": 0})", "measure"));
}

TEST(SweepSpecTest, ValidateAcceptsExactlyTheBuildableTopologyNames)
{
    SweepSpec s;
    ASSERT_TRUE(builtinSpec("ci-smoke", s));
    const std::vector<const char *> accepted = {
        "mesh4x4", "torus4x3", "ring5", "dragonfly", "dragonfly-p2a4h2g9"};
    const std::vector<const char *> rejected = {
        "mesh1x4", "mesh4x4x", "torus4", "ring1", "Dragonfly", "",
        "dragonfly-p2a4h2", "dragonfly-p2a4h2g9x", "torus:4,4"};
    for (const bool ok : {true, false}) {
        for (const char *name : ok ? accepted : rejected) {
            s.topology = name;
            std::string terr;
            const bool builds = makeTopologyByName(name, terr) != nullptr;
            EXPECT_EQ(builds, ok) << name;
            EXPECT_EQ(s.validate(), builds ? "" : "spec: " + terr) << name;
        }
    }
    // The dragonfly production is the name makeDragonfly gives the
    // fabric it builds.
    std::string terr;
    const auto dfly = makeTopologyByName("dragonfly-p2a4h2g9", terr);
    ASSERT_TRUE(dfly) << terr;
    EXPECT_EQ(dfly->numRouters(), 36);
    EXPECT_EQ(dfly->name, "dragonfly-p2a4h2g9");
}

/** Every enumerator of @p E round-trips through its name, and a name
 *  that is empty, "?", upper-cased or followed by a space is rejected
 *  without touching the output. */
template <class E>
void
expectNamesRoundTrip()
{
    const std::size_t n = std::size(enumTable<E>());
    for (std::size_t i = 0; i < n; ++i) {
        const auto e = static_cast<E>(i);
        const std::string name = toString(e);
        E back = static_cast<E>((i + 1) % n);
        EXPECT_TRUE(fromString(name, back)) << name;
        EXPECT_EQ(back, e) << name;

        std::string upper = name;
        for (char &c : upper)
            c = static_cast<char>(std::toupper(c));
        for (const std::string &bad : {std::string(), std::string("?"),
                                       upper, name + " "}) {
            E kept = back;
            EXPECT_FALSE(fromString(bad, kept)) << "'" << bad << "'";
            EXPECT_EQ(kept, back) << "'" << bad << "'";
        }
    }
}

TEST(EnumNameTest, RoutingKindAndSchemeRoundTrip)
{
    expectNamesRoundTrip<RoutingKind>();
    expectNamesRoundTrip<DeadlockScheme>();
    expectNamesRoundTrip<Pattern>();
    expectNamesRoundTrip<SmType>();
    expectNamesRoundTrip<SmAction>();
    expectNamesRoundTrip<ProtocolMutation>();
    expectNamesRoundTrip<fault::FaultKind>();

    RoutingKind kind = RoutingKind::WestFirst;
    DeadlockScheme scheme = DeadlockScheme::Spin;
    for (const char *bad : {"", "?", "SPIN", "favors_min", "xy-dor "}) {
        EXPECT_FALSE(fromString(bad, kind)) << bad;
        EXPECT_FALSE(fromString(bad, scheme)) << bad;
    }
    EXPECT_EQ(kind, RoutingKind::WestFirst);
    EXPECT_EQ(scheme, DeadlockScheme::Spin);

    // Patterns alone also accept '_' for '-'.
    Pattern pattern = Pattern::Tornado;
    EXPECT_FALSE(fromString("uniform_random", pattern));
    EXPECT_TRUE(patternFromString("uniform_random", pattern));
    EXPECT_EQ(pattern, Pattern::UniformRandom);
    EXPECT_TRUE(patternFromString("bit_rotation", pattern));
    EXPECT_EQ(pattern, Pattern::BitRotation);
    EXPECT_FALSE(patternFromString("bit_rotation ", pattern));
    EXPECT_EQ(pattern, Pattern::BitRotation);
}

TEST(SweepSpecTest, BuiltinSpecsAllValidateAndExpand)
{
    for (const std::string &name : builtinSpecNames()) {
        SweepSpec s;
        ASSERT_TRUE(builtinSpec(name, s)) << name;
        EXPECT_EQ(s.name, name);
        EXPECT_TRUE(s.validate().empty()) << s.validate();
        EXPECT_FALSE(s.expand().empty()) << name;
    }
    SweepSpec s;
    EXPECT_FALSE(builtinSpec("no-such-spec", s));
    // The figure grids are pinned: a silent change to a built-in spec
    // would silently change what "reproduce Fig. N" means.
    ASSERT_TRUE(builtinSpec("fig07", s));
    EXPECT_EQ(s.expand().size(), 6u * 5 * 11);
    ASSERT_TRUE(builtinSpec("ci-smoke", s));
    EXPECT_EQ(s.expand().size(), 3u * 2 * 5);
}

TEST(SweepSpecTest, SpecRoundTripsThroughJson)
{
    SweepSpec s;
    ASSERT_TRUE(builtinSpec("ci-smoke", s));
    std::string err;
    SweepSpec back;
    ASSERT_TRUE(SweepSpec::fromJson(s.toJson(), back, err)) << err;
    EXPECT_EQ(back.toJson().dump(), s.toJson().dump());
}

// ---------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------

TEST(DeriveCellSeedTest, DependsOnEveryCoordinateOnly)
{
    const std::uint64_t base = deriveCellSeed(
        0, "WestFirst_3VC", Pattern::UniformRandom, 0.1, 1);
    // Deterministic across calls.
    EXPECT_EQ(base, deriveCellSeed(0, "WestFirst_3VC",
                                   Pattern::UniformRandom, 0.1, 1));
    EXPECT_NE(base, 0u);
    // Each coordinate perturbs the seed.
    EXPECT_NE(base, deriveCellSeed(1, "WestFirst_3VC",
                                   Pattern::UniformRandom, 0.1, 1));
    EXPECT_NE(base, deriveCellSeed(0, "EscapeVC_3VC",
                                   Pattern::UniformRandom, 0.1, 1));
    EXPECT_NE(base, deriveCellSeed(0, "WestFirst_3VC",
                                   Pattern::Transpose, 0.1, 1));
    EXPECT_NE(base, deriveCellSeed(0, "WestFirst_3VC",
                                   Pattern::UniformRandom, 0.2, 1));
    EXPECT_NE(base, deriveCellSeed(0, "WestFirst_3VC",
                                   Pattern::UniformRandom, 0.1, 2));
}

TEST(DeriveCellSeedTest, ExpansionSeedsAreDistinct)
{
    SweepSpec s;
    ASSERT_TRUE(builtinSpec("fig07", s));
    std::vector<std::uint64_t> seeds;
    for (const Cell &c : s.expand())
        seeds.push_back(c.netSeed);
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

// ---------------------------------------------------------------------
// ArgParse
// ---------------------------------------------------------------------

bool
runParse(std::vector<const char *> argv,
         const std::vector<ArgSpec> &specs, std::string &err)
{
    argv.insert(argv.begin(), "prog");
    return parseArgs(static_cast<int>(argv.size()),
                     const_cast<char **>(argv.data()), specs, err);
}

TEST(ArgParseTest, ParsesAllValueForms)
{
    std::uint64_t jobs = 1;
    double rate = 0.0;
    std::string out;
    bool flag = false, seen = false;
    const std::vector<ArgSpec> specs = {
        argU64("-j, --jobs", &jobs, "workers", &seen),
        argF64("--rate", &rate),
        argStr("--out", &out),
        argFlag("--fast", &flag),
    };
    std::string err;
    EXPECT_TRUE(runParse({"--rate", "0.25", "--out", "x.json", "--fast"},
                         specs, err))
        << err;
    EXPECT_FALSE(seen);
    EXPECT_TRUE(runParse({"-j4"}, specs, err)) << err; // attached short
    EXPECT_EQ(jobs, 4u);
    EXPECT_TRUE(seen);
    EXPECT_TRUE(runParse({"--jobs=8"}, specs, err)) << err; // --name=v
    EXPECT_EQ(jobs, 8u);
    EXPECT_TRUE(runParse({"-j", "2"}, specs, err)) << err; // alias
    EXPECT_EQ(jobs, 2u);
    EXPECT_DOUBLE_EQ(rate, 0.25);
    EXPECT_EQ(out, "x.json");
    EXPECT_TRUE(flag);
}

TEST(ArgParseTest, FailsLoudly)
{
    std::uint64_t n = 0;
    bool flag = false;
    const std::vector<ArgSpec> specs = {
        argU64("--n", &n),
        argFlag("--fast", &flag),
    };
    std::string err;
    EXPECT_FALSE(runParse({"--bogus"}, specs, err));
    EXPECT_NE(err.find("--bogus"), std::string::npos) << err;
    EXPECT_FALSE(runParse({"--n"}, specs, err)); // missing value
    EXPECT_NE(err.find("--n"), std::string::npos) << err;
    EXPECT_FALSE(runParse({"--n", "--fast"}, specs, err)); // ate a flag
    EXPECT_FALSE(runParse({"--n", "12x"}, specs, err)); // junk suffix
    EXPECT_FALSE(runParse({"--n", "-3"}, specs, err));  // negative
    EXPECT_FALSE(runParse({"--fast=1"}, specs, err));   // flag w/ value
    EXPECT_FALSE(runParse({"positional"}, specs, err));
    EXPECT_FALSE(runParse({"-n"}, specs, err)); // no such alias
}

TEST(ArgParseTest, IntFlagRejectsWhatAnIntCannotHold)
{
    int n = 7;
    const std::vector<ArgSpec> specs = {argInt("-n, --count", &n)};
    std::string err;
    EXPECT_TRUE(runParse({"--count", "2147483647"}, specs, err)) << err;
    EXPECT_EQ(n, 2147483647);
    EXPECT_TRUE(runParse({"-n0"}, specs, err)) << err;
    EXPECT_EQ(n, 0);
    for (const char *bad : {"2147483648", "4294967297",
                            "18446744073709551616", "-1", "3x"}) {
        n = 5;
        EXPECT_FALSE(runParse({"--count", bad}, specs, err)) << bad;
        EXPECT_NE(err.find("--count"), std::string::npos) << err;
        EXPECT_EQ(n, 5) << bad;
    }
    EXPECT_NE(err.find("invalid integer"), std::string::npos) << err;
    EXPECT_FALSE(runParse({"-n", "4294967297"}, specs, err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(ArgParseTest, IntFlagRejectsWhatItsRangeExcludes)
{
    int n = 7;
    const std::vector<ArgSpec> specs = {
        argInt("-n, --count", &n, "", 1, 64)};
    std::string err;
    for (const char *ok : {"1", "64"}) {
        EXPECT_TRUE(runParse({"--count", ok}, specs, err)) << err;
        EXPECT_EQ(n, std::stoi(ok));
    }
    for (const char *bad : {"0", "65", "2147483647", "4294967297"}) {
        n = 5;
        EXPECT_FALSE(runParse({"-n", bad}, specs, err)) << bad;
        EXPECT_EQ(err, std::string("-n, --count out of range: '") + bad +
                           "' (min 1, max 64)");
        EXPECT_EQ(n, 5) << bad;
    }
}

TEST(ArgParseTest, UsageAlignsAndWrapsEveryRow)
{
    std::uint64_t n = 0;
    std::string path;
    bool flag = false;
    const std::vector<ArgSpec> specs = {
        argU64("-n, --count", &n, "how many"),
        argStr("--out", &path, "where the results go", "DIR"),
        argFlag("--fast", &flag,
                "a help text long enough that it cannot fit on one line "
                "of the generated usage and has to wrap onto the next"),
    };
    const std::string text = usage(specs);
    EXPECT_EQ(text.rfind("options:\n", 0), 0u) << text;
    EXPECT_NE(text.find("  -n, --count N"), std::string::npos) << text;
    EXPECT_NE(text.find("  --out DIR"), std::string::npos) << text;

    // Every line fits, and every help text starts in the same column.
    std::istringstream lines(text);
    std::string line;
    std::size_t helpCol = 0;
    int rows = 0;
    while (std::getline(lines, line)) {
        EXPECT_LE(line.size(), 78u) << line;
        if (line.rfind("  -", 0) != 0)
            continue;
        ++rows;
        const std::size_t col =
            line.find_first_not_of(' ', line.find("  ", 2));
        if (helpCol == 0)
            helpCol = col;
        EXPECT_EQ(col, helpCol) << line;
    }
    EXPECT_EQ(rows, 3);
    EXPECT_NE(text.find("has to wrap"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Campaign determinism
// ---------------------------------------------------------------------

SweepSpec
tinySpec()
{
    std::string err;
    SweepSpec s = parseSpec(
        R"({"name": "unit", "topology": "mesh4x4",
            "presets": ["WestFirst_3VC", "MinAdaptive_3VC_SPIN"],
            "patterns": ["uniform-random"],
            "rates": [0.1, 0.3], "seeds": [1, 2],
            "warmup": 50, "measure": 150, "latencyCap": 200.0})",
        err);
    EXPECT_TRUE(err.empty()) << err;
    return s;
}

TEST(CampaignTest, AggregateIsBitIdenticalAcrossWorkerCounts)
{
    const SweepSpec spec = tinySpec();
    CampaignOptions serial;
    serial.jobs = 1;
    CampaignOptions pooled;
    pooled.jobs = 4;
    const std::string a = Campaign(spec, serial).run().dump(2);
    const std::string b = Campaign(spec, pooled).run().dump(2);
    EXPECT_EQ(a, b);
}

TEST(CampaignTest, ResumeFromPartialCellDirReproducesAggregate)
{
    const SweepSpec spec = tinySpec();
    const fs::path dir =
        fs::path(testing::TempDir()) / "spinnoc_exp_resume_test";
    fs::remove_all(dir);

    CampaignOptions opt;
    opt.jobs = 2;
    opt.cellDir = dir.string();
    Campaign first(spec, opt);
    const std::string full = first.run().dump(2);
    EXPECT_EQ(first.perf().cellsSimulated, 8u);

    // Drop one finished cell; a resume re-simulates exactly that cell
    // and reproduces the aggregate bit for bit.
    std::size_t removed = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().filename() != "results.json" &&
            e.path().extension() == ".json") {
            fs::remove(e.path());
            ++removed;
            break;
        }
    }
    ASSERT_EQ(removed, 1u);

    opt.resume = true;
    Campaign second(spec, opt);
    EXPECT_EQ(second.run().dump(2), full);
    EXPECT_EQ(second.perf().cellsSimulated, 1u);
    EXPECT_EQ(second.perf().cellsCached, 7u);

    fs::remove_all(dir);
}

TEST(CampaignTest, PeriodicAuditPassesOnCleanProtocol)
{
    // --audit wiring: the runtime auditor sampled every 16 cycles of
    // every cell must stay silent on the unmutated protocol, and the
    // audited aggregate must be bit-identical to the unaudited one
    // (the auditor is read-only).
    const SweepSpec spec = tinySpec();
    CampaignOptions plain;
    CampaignOptions audited;
    audited.run.auditInterval = 16;
    const std::string a = Campaign(spec, plain).run().dump(2);
    const std::string b = Campaign(spec, audited).run().dump(2);
    EXPECT_EQ(a, b);
}

TEST(CampaignTest, RecordsCarryExactCellSeeds)
{
    // A cell must be rebuildable from its record: every 64-bit netSeed
    // reads back exactly what expand() derived (ci-smoke cell 0's is
    // above 2^63). Quarter scale, as spin_sweep --fast runs it.
    SweepSpec spec;
    ASSERT_TRUE(builtinSpec("ci-smoke", spec));
    spec.warmup /= 4;
    spec.measure /= 4;
    const std::vector<Cell> cells = spec.expand();
    CampaignOptions opt;
    opt.jobs = 2;
    std::string err;
    const obs::JsonValue back =
        obs::JsonValue::parse(Campaign(spec, opt).run().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    const obs::JsonValue &records = back["cells"];
    ASSERT_EQ(records.size(), cells.size());
    EXPECT_GT(cells[0].netSeed, 1ull << 63);
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(records.at(i)["netSeed"].asU64(), cells[i].netSeed) << i;
}

TEST(CampaignTest, RunCellMatchesCampaignCell)
{
    const SweepSpec spec = tinySpec();
    const std::vector<Cell> cells = spec.expand();
    std::string terr;
    const auto topo = makeTopologyByName(spec.topology, terr);
    ASSERT_TRUE(topo) << terr;

    CampaignOptions opt;
    const obs::JsonValue results = Campaign(spec, opt).run();
    const obs::JsonValue lone = Campaign::runCell(spec, cells[3], topo);
    // The spec fingerprint (resume-compatibility metadata) lives only
    // in stored cell files, never in the aggregate, so the documents
    // must match exactly.
    const obs::JsonValue &inRun = results["cells"].at(3);
    EXPECT_EQ(inRun.find("specFingerprint"), nullptr);
    EXPECT_EQ(lone.dump(2), inRun.dump(2));
}

} // namespace
} // namespace spin::exp
