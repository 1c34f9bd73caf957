/**
 * @file
 * Tests for the spin_model verification subsystem (src/verify): the
 * Fig. 4a transition relation, canonical state digests, the explorer
 * itself (clean protocol verifies, mutated protocol convicted), trace
 * serialization, and the committed counterexample regression trace.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/Hash.hh"
#include "core/SpinManager.hh"
#include "network/Network.hh"
#include "network/NetworkBuilder.hh"
#include "router/Router.hh"
#include "topology/Mesh.hh"
#include "topology/Ring.hh"
#include "verify/Digest.hh"
#include "verify/Explorer.hh"
#include "verify/Scenarios.hh"
#include "verify/Trace.hh"

namespace spin::verify
{
namespace
{

const Scenario &
ring4()
{
    const Scenario *sc = findScenario("ring4");
    EXPECT_NE(sc, nullptr);
    return *sc;
}

// ---------------------------------------------------------------------
// Fig. 4a transition relation
// ---------------------------------------------------------------------

TEST(VerifyTransitions, InitiatorRelationIsExactlyFig4a)
{
    using S = InitState;
    const std::vector<S> all = {S::Off,         S::DetectDeadlock,
                                S::MoveWait,    S::FwdProgress,
                                S::ProbeMoveWait, S::KillMoveWait};
    // Directed edges of the initiator projection of Fig. 4a.
    const std::vector<std::pair<S, S>> edges = {
        {S::Off, S::DetectDeadlock},
        {S::DetectDeadlock, S::MoveWait},
        {S::DetectDeadlock, S::Off},
        {S::MoveWait, S::FwdProgress},
        {S::MoveWait, S::KillMoveWait},
        {S::FwdProgress, S::ProbeMoveWait},
        {S::FwdProgress, S::DetectDeadlock},
        {S::FwdProgress, S::Off},
        {S::ProbeMoveWait, S::FwdProgress},
        {S::ProbeMoveWait, S::KillMoveWait},
        {S::KillMoveWait, S::DetectDeadlock},
        {S::KillMoveWait, S::Off},
    };
    for (const S from : all) {
        for (const S to : all) {
            const bool isEdge =
                from == to ||
                std::find(edges.begin(), edges.end(),
                          std::make_pair(from, to)) != edges.end();
            EXPECT_EQ(initTransitionAllowed(from, to), isEdge)
                << toString(from) << " -> " << toString(to);
        }
    }
}

TEST(VerifyTransitions, FrozenMasksThePaperView)
{
    using P = SpinState;
    const std::vector<P> all = {P::Off,    P::DetectDeadlock,
                                P::Move,   P::Frozen,
                                P::ForwardProgress, P::ProbeMove,
                                P::KillMove};
    for (const P s : all) {
        // Self-loops always allowed; entering/leaving Frozen always
        // allowed (the victim context masks the initiator context).
        EXPECT_TRUE(paperTransitionAllowed(s, s)) << toString(s);
        EXPECT_TRUE(paperTransitionAllowed(s, P::Frozen)) << toString(s);
        EXPECT_TRUE(paperTransitionAllowed(P::Frozen, s)) << toString(s);
    }
    // Unmasked pairs follow the initiator relation.
    EXPECT_TRUE(paperTransitionAllowed(P::Off, P::DetectDeadlock));
    EXPECT_TRUE(paperTransitionAllowed(P::Move, P::ForwardProgress));
    EXPECT_FALSE(paperTransitionAllowed(P::Off, P::Move));
    EXPECT_FALSE(paperTransitionAllowed(P::Move, P::ProbeMove));
    EXPECT_FALSE(paperTransitionAllowed(P::KillMove, P::Move));
}

// ---------------------------------------------------------------------
// Canonical digests
// ---------------------------------------------------------------------

TEST(VerifyDigest, DeterministicAcrossIndependentBuilds)
{
    std::unique_ptr<Network> a = ring4().build(kNeverCycle);
    std::unique_ptr<Network> b = ring4().build(kNeverCycle);
    for (Cycle c = 0; c <= 60; ++c) {
        if (c % 20 == 0) {
            EXPECT_EQ(canonicalDigest(*a, true), canonicalDigest(*b, true))
                << "cycle " << c;
        }
        a->step();
        b->step();
    }
}

TEST(VerifyDigest, EvolvingStateChangesTheDigest)
{
    std::unique_ptr<Network> net = ring4().build(kNeverCycle);
    const std::uint64_t empty = canonicalDigest(*net, true);
    for (int i = 0; i < 40; ++i)
        net->step();
    EXPECT_NE(canonicalDigest(*net, true), empty);
}

/** A 4-router ring without recovery (1 vnet x 1 VC, depth 5) carrying
 *  one 5-flit packet @p src -> @p dest. */
std::unique_ptr<Network>
ringWithPacket(NodeId src, NodeId dest)
{
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::None;
    auto net = buildNetwork(std::make_shared<Topology>(makeRing(4)), cfg,
                            RoutingKind::MinimalAdaptive);
    net->offerPacket(net->makePacket(src, dest, 0, 5));
    return net;
}

TEST(VerifyDigest, RotatedStatesShareTheCanonicalDigest)
{
    // 1 -> 2 is 0 -> 1 rotated by one router; 0 -> 3 is its mirror
    // image, which no rotation reaches. (Under the spin scheme the
    // rotating priority is per router id, so rotations differ there.)
    std::unique_ptr<Network> a = ringWithPacket(0, 1);
    std::unique_ptr<Network> rotated = ringWithPacket(1, 2);
    std::unique_ptr<Network> mirrored = ringWithPacket(0, 3);
    for (Cycle c = 0; c <= 13; ++c) {
        const std::uint64_t d = canonicalDigest(*a, true);
        EXPECT_EQ(canonicalDigest(*rotated, true), d) << "cycle " << c;
        EXPECT_NE(canonicalDigest(*mirrored, true), d) << "cycle " << c;
        a->step();
        rotated->step();
        mirrored->step();
    }
}

TEST(VerifyDigest, RejectsMoreDetectionCandidatesThanTheResidueCovers)
{
    // 4 in-network in-ports x 3 VCs = 12 candidates per router: the
    // probeAttempt residue (2 * lcm(1..8)) is exact only up to 8.
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 3;
    cfg.scheme = DeadlockScheme::Spin;
    auto net = buildNetwork(std::make_shared<Topology>(makeMesh(4, 4)), cfg,
                            RoutingKind::MinimalAdaptive);
    try {
        canonicalDigest(*net, false);
        ADD_FAILURE() << "a 12-candidate SPIN network was digested";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("router 0 has 12 detection candidates"),
                  std::string::npos)
            << msg;
    }

    // Without a SPIN unit there is no probeAttempt to keep.
    cfg.scheme = DeadlockScheme::None;
    auto plain = buildNetwork(std::make_shared<Topology>(makeMesh(4, 4)),
                              cfg, RoutingKind::MinimalAdaptive);
    EXPECT_NO_THROW(canonicalDigest(*plain, false));
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

TEST(VerifyExplorer, BaselineRunQuiescesClean)
{
    ExplorerOptions opt;
    opt.budget = 0;
    const ExploreResult res = explore(ring4(), opt);
    EXPECT_EQ(res.runs, 1u);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_GT(res.statesVisited, 0u);
    EXPECT_EQ(res.choicePoints, 0u);
}

TEST(VerifyExplorer, BudgetOneExploresAndStaysClean)
{
    ExplorerOptions opt;
    opt.budget = 1;
    const ExploreResult res = explore(ring4(), opt);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
    // One child run per undeduplicated Delay/Drop branch, plus the
    // root: the protocol has real choice points on this scenario.
    EXPECT_GT(res.runs, 10u);
    EXPECT_EQ(res.runs, res.choicePoints + 1);
}

TEST(VerifyExplorer, BudgetTwoStateSpaceIsPinned)
{
    // The depth the model-b2 benchmark workload explores (the CI
    // baseline, tools/MODEL_baseline.json, pins budget 1). A change to
    // the digest or to when it is taken must keep every count.
    struct Want
    {
        const char *scenario;
        std::uint64_t runs, states, pruned, choicePoints, cycles;
    };
    const Want wants[] = {
        {"ring4", 253, 1657, 230, 252, 16817},
        {"shared8", 307, 1664, 285, 306, 19296},
        {"fault-ring4", 2000, 11447, 1819, 1990, 124253},
        {"dual-torus8", 909, 4390, 822, 908, 38594},
    };
    ASSERT_EQ(std::size(wants), scenarios().size());
    for (const Want &w : wants) {
        const Scenario *sc = findScenario(w.scenario);
        ASSERT_NE(sc, nullptr) << w.scenario;
        ExplorerOptions opt;
        opt.budget = 2;
        const ExploreResult res = explore(*sc, opt);
        EXPECT_TRUE(res.exhausted) << w.scenario;
        EXPECT_TRUE(res.violations.empty()) << w.scenario;
        EXPECT_EQ(res.runs, w.runs) << w.scenario;
        EXPECT_EQ(res.statesVisited, w.states) << w.scenario;
        EXPECT_EQ(res.prunedRuns, w.pruned) << w.scenario;
        EXPECT_EQ(res.choicePoints, w.choicePoints) << w.scenario;
        EXPECT_EQ(res.cyclesSimulated, w.cycles) << w.scenario;
    }
}

TEST(VerifyExplorer, CappedExplorationIsPinned)
{
    // Explorations that a cap stops: the mutated protocol at budget 2
    // is convicted 8 times (maxViolations) on every scenario, and a
    // clean fault-ring4 stops at maxRuns. Pins where each cap is
    // checked and the order violations are found in, which the clean
    // exhausted explorations above never reach.
    struct Want
    {
        const char *scenario;
        std::uint64_t runs, states, pruned, choicePoints, cycles;
        std::uint64_t traces; //!< FNV-1a of the violations' dumps
    };
    const Want wants[] = {
        {"ring4", 203, 1005, 175, 228, 12659, 0x692a602274ec3c85},
        {"shared8", 253, 1037, 225, 278, 14881, 0x52a57269c4554a57},
        {"fault-ring4", 148, 1496, 114, 1034, 7672, 0x855d542ececd3aa2},
        {"dual-torus8", 415, 1871, 372, 812, 14435, 0x59a996daba437d9c},
    };
    ASSERT_EQ(std::size(wants), scenarios().size());
    for (const Want &w : wants) {
        const Scenario *sc = findScenario(w.scenario);
        ASSERT_NE(sc, nullptr) << w.scenario;
        ExplorerOptions opt;
        opt.budget = 2;
        opt.mutation = ProtocolMutation::SkipCancelUnfreeze;
        const ExploreResult res = explore(*sc, opt);
        EXPECT_FALSE(res.exhausted) << w.scenario;
        EXPECT_EQ(res.violations.size(), opt.maxViolations) << w.scenario;
        EXPECT_EQ(res.runs, w.runs) << w.scenario;
        EXPECT_EQ(res.statesVisited, w.states) << w.scenario;
        EXPECT_EQ(res.prunedRuns, w.pruned) << w.scenario;
        EXPECT_EQ(res.choicePoints, w.choicePoints) << w.scenario;
        EXPECT_EQ(res.cyclesSimulated, w.cycles) << w.scenario;
        Fnv1a traces;
        for (const Violation &v : res.violations)
            traces.bytes(traceToJson(v).dump());
        EXPECT_EQ(traces.value(), w.traces) << w.scenario;
    }

    const Scenario *sc = findScenario("fault-ring4");
    ASSERT_NE(sc, nullptr);
    ExplorerOptions opt;
    opt.budget = 2;
    opt.maxRuns = 100;
    const ExploreResult res = explore(*sc, opt);
    EXPECT_FALSE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_EQ(res.runs, 100u);
    EXPECT_EQ(res.statesVisited, 1283u);
    EXPECT_EQ(res.prunedRuns, 75u);
    EXPECT_EQ(res.choicePoints, 778u);
    EXPECT_EQ(res.cyclesSimulated, 5285u);
}

/** Every field of @p got, and each violation's trace, equals @p want's. */
void
expectSameResult(const ExploreResult &got, const ExploreResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.runs, want.runs) << what;
    EXPECT_EQ(got.statesVisited, want.statesVisited) << what;
    EXPECT_EQ(got.prunedRuns, want.prunedRuns) << what;
    EXPECT_EQ(got.choicePoints, want.choicePoints) << what;
    EXPECT_EQ(got.cyclesSimulated, want.cyclesSimulated) << what;
    EXPECT_EQ(got.exhausted, want.exhausted) << what;
    ASSERT_EQ(got.violations.size(), want.violations.size()) << what;
    for (std::size_t i = 0; i < got.violations.size(); ++i) {
        EXPECT_EQ(traceToJson(got.violations[i]).dump(),
                  traceToJson(want.violations[i]).dump())
            << what << ", violation " << i;
    }
}

TEST(VerifyExplorer, ResultsIdenticalForAnyJobCount)
{
    // Runs are simulated in parallel against the visited set of their
    // batch's start and committed in frontier order: clean, convicted
    // and capped explorations must not depend on the worker count.
    struct Case
    {
        std::string what;
        const Scenario *sc;
        ExplorerOptions opt;
    };
    std::vector<Case> cases;
    for (const Scenario &sc : scenarios()) {
        ExplorerOptions opt;
        opt.budget = 2;
        cases.push_back({sc.name + " clean", &sc, opt});
        opt.mutation = ProtocolMutation::SkipCancelUnfreeze;
        cases.push_back({sc.name + " skip-cancel-unfreeze", &sc, opt});
    }
    ExplorerOptions capped;
    capped.budget = 2;
    capped.maxRuns = 100;
    cases.push_back({"fault-ring4 maxRuns 100", findScenario("fault-ring4"),
                     capped});

    for (Case &c : cases) {
        ASSERT_NE(c.sc, nullptr) << c.what;
        c.opt.jobs = 1;
        const ExploreResult want = explore(*c.sc, c.opt);
        for (const int jobs : {2, 3, 4, 7}) {
            c.opt.jobs = jobs;
            expectSameResult(explore(*c.sc, c.opt), want,
                             c.what + " at " + std::to_string(jobs) +
                                 " jobs");
        }
    }
}

TEST(VerifyExplorer, RunErrorsPropagate)
{
    // The digest's 8-candidate guard fires in a run's first cycle. Four
    // roots, one per fault cycle, each with more VCs than the last: the
    // error of the first root in frontier order is the one reported,
    // whichever worker raised its error first.
    Scenario sc;
    sc.name = "mesh4x4-12-candidates";
    sc.loopLen = 4;
    sc.formation = 100;
    sc.faultCycles = {1, 2, 3, 4};
    sc.build = [](Cycle fault_cycle) {
        NetworkConfig cfg;
        cfg.vnets = 1;
        cfg.vcsPerVnet = 2 + static_cast<int>(fault_cycle);
        cfg.scheme = DeadlockScheme::Spin;
        return buildNetwork(std::make_shared<Topology>(makeMesh(4, 4)), cfg,
                            RoutingKind::MinimalAdaptive);
    };
    for (const int jobs : {1, 4}) {
        ExplorerOptions opt;
        opt.jobs = jobs;
        try {
            explore(sc, opt);
            ADD_FAILURE() << "a 12-candidate SPIN network was explored at "
                          << jobs << " jobs";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("router 0 has 12 detection candidates"),
                      std::string::npos)
                << jobs << " jobs: " << msg;
        }
    }
}

TEST(VerifyExplorer, SharedLoopCaseTwoStaysClean)
{
    const Scenario *sc = findScenario("shared8");
    ASSERT_NE(sc, nullptr);
    ExplorerOptions opt;
    opt.budget = 1;
    const ExploreResult res = explore(*sc, opt);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
}

TEST(VerifyExplorer, MutationIsConvictedWithMinimalTrace)
{
    ExplorerOptions opt;
    opt.budget = 1;
    opt.mutation = ProtocolMutation::SkipCancelUnfreeze;
    const ExploreResult res = explore(ring4(), opt);
    ASSERT_FALSE(res.violations.empty());
    const Violation minimal = minimize(ring4(), res.violations.front());
    EXPECT_EQ(minimal.kind, "audit");
    EXPECT_LE(minimal.run.choices.size(), 1u);

    const ReplayResult rep = replay(ring4(), minimal.run);
    ASSERT_TRUE(rep.violated);
    EXPECT_EQ(rep.violation.kind, minimal.kind);
    EXPECT_EQ(rep.violation.cycle, minimal.cycle);
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

TEST(VerifyTrace, JsonRoundTrip)
{
    Violation v;
    v.kind = "liveness";
    v.message = "no quiescence by cycle 99";
    v.cycle = 99;
    v.run.scenario = "ring4";
    v.run.mutation = ProtocolMutation::SkipKillMove;
    v.run.faultCycle = 48;
    v.run.choices.push_back(
        Choice{17, SmType::Move, 3, 0, 1, SmAction::Drop});
    v.run.choices.push_back(
        Choice{21, SmType::KillMove, 2, 1, 0, SmAction::Delay});

    Violation back;
    std::string err;
    ASSERT_TRUE(traceFromJson(traceToJson(v), back, err)) << err;
    EXPECT_EQ(back.kind, v.kind);
    EXPECT_EQ(back.message, v.message);
    EXPECT_EQ(back.cycle, v.cycle);
    EXPECT_EQ(back.run.scenario, v.run.scenario);
    EXPECT_EQ(back.run.mutation, v.run.mutation);
    EXPECT_EQ(back.run.faultCycle, v.run.faultCycle);
    ASSERT_EQ(back.run.choices.size(), v.run.choices.size());
    for (std::size_t i = 0; i < v.run.choices.size(); ++i)
        EXPECT_EQ(back.run.choices[i], v.run.choices[i]) << "choice " << i;
}

const std::string kCommittedTrace =
    std::string(SPINNOC_TEST_TRACE_DIR) + "/ring4-skip-cancel-unfreeze.json";

/** The committed counterexample's text with each (from, to) pair's
 *  first @c from replaced by its @c to. */
std::string
committedTraceWith(
    const std::vector<std::pair<std::string, std::string>> &edits)
{
    std::ifstream in(kCommittedTrace);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    for (const auto &[from, to] : edits) {
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        if (at != std::string::npos)
            text.replace(at, from.size(), to);
    }
    return text;
}

TEST(VerifyTrace, RejectsMalformedDocuments)
{
    Violation out;
    std::string err;
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", "wrong/v0");
    EXPECT_FALSE(traceFromJson(doc, out, err));
    EXPECT_NE(err.find("schema"), std::string::npos);

    // Copies of the committed trace with one field spoiled. An integer
    // must fit its field exactly and a text field must be a string; the
    // error names the field.
    const std::pair<std::string, std::string> probes[] = {
        {"\"cycle\": 44,", "\"cycle\": 44.9,"},
        {"\"sender\": 3,", "\"sender\": 3.7,"},
        {"\"nth\": 0,", "\"nth\": 0.5,"},
        {"\"cycle\": 50,", "\"cycle\": 50.5,"},
        {"\"sender\": 3,", "\"sender\": 4294967299,"},
        {"\"cycle\": 44,", "\"cycle\": -1,"},
        {"\"outport\": 0,", "\"outport\": 2147483648,"},
        {"\"faultCycle\": null", "\"faultCycle\": 7.5"},
        {"\"scenario\": \"ring4\"", "\"scenario\": 5"},
        {"\"schema\": \"spin-model-trace/v1\"", "\"schema\": 1"},
        {"\"kind\": \"audit\"", "\"kind\": null"},
        {"\"mutation\": \"skip-cancel-unfreeze\"", "\"mutation\": []"},
        {"\"type\": \"move\"", "\"type\": 1"},
        {"\"action\": \"drop\"", "\"action\": true"},
    };
    for (const auto &[from, to] : probes) {
        const std::string field = from.substr(0, from.find(':'));
        doc = obs::JsonValue::parse(committedTraceWith({{from, to}}), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_FALSE(traceFromJson(doc, out, err)) << to;
        EXPECT_NE(err.find(field), std::string::npos) << to << ": " << err;
    }
    doc = obs::JsonValue::parse(committedTraceWith({}), &err);
    doc.set("message", 1);
    EXPECT_FALSE(traceFromJson(doc, out, err));
    EXPECT_NE(err.find("\"message\""), std::string::npos) << err;
}

TEST(VerifyTrace, ReadsWholeNumbersInAnyNotation)
{
    Violation want;
    Violation got;
    std::string err;
    ASSERT_TRUE(traceFromFile(kCommittedTrace, want, err)) << err;
    const obs::JsonValue doc = obs::JsonValue::parse(
        committedTraceWith({{"\"cycle\": 44,", "\"cycle\": 44.0,"},
                            {"\"cycle\": 50,", "\"cycle\": 5e1,"}}),
        &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(traceFromJson(doc, got, err)) << err;
    EXPECT_EQ(got.cycle, want.cycle);
    EXPECT_EQ(got.run.choices, want.run.choices);
}

TEST(VerifyTrace, CommittedCounterexampleStillReproduces)
{
    // The committed regression trace: skip-cancel-unfreeze plus one
    // dropped move leaves a stale frozen victim on ring4. Replaying it
    // through the full simulator must reproduce the audit violation at
    // the recorded cycle, bit-identically, on every platform.
    Violation want;
    std::string err;
    ASSERT_TRUE(traceFromFile(kCommittedTrace, want, err)) << err;
    const Scenario *sc = findScenario(want.run.scenario);
    ASSERT_NE(sc, nullptr);

    const ReplayResult got = replay(*sc, want.run);
    ASSERT_TRUE(got.violated);
    EXPECT_EQ(got.violation.kind, want.kind);
    EXPECT_EQ(got.violation.cycle, want.cycle);
    EXPECT_EQ(got.violation.message, want.message);
}

} // namespace
} // namespace spin::verify
