/**
 * @file
 * Tests for the spin_model verification subsystem (src/verify): the
 * Fig. 4a transition relation, FSM snapshot/restore, canonical state
 * digests, the explorer itself (clean protocol verifies, mutated
 * protocol convicted), trace serialization, and the committed
 * counterexample regression trace.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

std::unique_ptr<Network>
ring4At(Cycle cycles)
{
    std::unique_ptr<Network> net = ring4().build(kNeverCycle);
    for (Cycle i = 0; i < cycles; ++i)
        net->step();
    return net;
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
// Snapshot / restore
// ---------------------------------------------------------------------

TEST(VerifySnapshot, RestoreRoundTripsMidRecovery)
{
    // Cycle 44 is mid-recovery on ring4 (t_DD = 32, deadlock formed by
    // ~10): units hold loops, victims and frozen VCs.
    std::unique_ptr<Network> net = ring4At(44);
    const Cycle now = net->now();
    bool sawRecoveryState = false;
    for (int r = 0; r < net->numRouters(); ++r) {
        SpinUnit *su = net->router(r).spinUnit();
        ASSERT_NE(su, nullptr);
        const FsmSnapshot s = su->snapshot(now);
        sawRecoveryState |= s.state != InitState::Off || s.victimActive;
        su->restore(s, now);
        const FsmSnapshot again = su->snapshot(now);
        EXPECT_EQ(s, again) << "router " << r;
    }
    EXPECT_TRUE(sawRecoveryState)
        << "ring4 should be mid-recovery at cycle 44";
}

TEST(VerifySnapshot, SelfRestoreKeepsTheDigest)
{
    std::unique_ptr<Network> net = ring4At(44);
    const Cycle now = net->now();
    SpinManager *mgr = net->spinManager();
    ASSERT_NE(mgr, nullptr);

    const std::uint64_t before = canonicalDigest(*net, true);
    const SmSubstrate sms = mgr->snapshotSms(now);
    std::vector<FsmSnapshot> units;
    for (int r = 0; r < net->numRouters(); ++r)
        units.push_back(net->router(r).spinUnit()->snapshot(now));

    for (int r = 0; r < net->numRouters(); ++r)
        net->router(r).spinUnit()->restore(units[static_cast<size_t>(r)],
                                           now);
    mgr->restoreSms(sms, now);
    EXPECT_EQ(canonicalDigest(*net, true), before);
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

TEST(VerifyTrace, RejectsMalformedDocuments)
{
    Violation out;
    std::string err;
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", "wrong/v0");
    EXPECT_FALSE(traceFromJson(doc, out, err));
    EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(VerifyTrace, CommittedCounterexampleStillReproduces)
{
    // The committed regression trace: skip-cancel-unfreeze plus one
    // dropped move leaves a stale frozen victim on ring4. Replaying it
    // through the full simulator must reproduce the audit violation at
    // the recorded cycle, bit-identically, on every platform.
    const std::string path =
        std::string(SPINNOC_TEST_TRACE_DIR) +
        "/ring4-skip-cancel-unfreeze.json";
    Violation want;
    std::string err;
    ASSERT_TRUE(traceFromFile(path, want, err)) << err;
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
