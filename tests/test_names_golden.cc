/**
 * @file
 * Golden names of every enumerator the simulator writes as text: SM
 * types, SM actions, protocol mutations, fault kinds (JSON kind and
 * trace event), routing kinds, traffic patterns, deadlock schemes and
 * the SPIN FSM's initiator and paper states.
 * These strings end up in cell ids, cell seeds (which hash the pattern
 * name), resume fingerprints, trace files and committed
 * counterexamples, so a renamed enumerator silently breaks replay and
 * resume. Names are compared as std::string so the test holds whatever
 * string type the conversions return.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/Config.hh"
#include "core/SpecialMsg.hh"
#include "core/SpinFsm.hh"
#include "core/SpinManager.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "obs/Tracer.hh"
#include "topology/Mesh.hh"
#include "traffic/TrafficPattern.hh"
#include "verify/Trace.hh"

namespace spin
{
namespace
{

TEST(EnumNamesGolden, SmTypes)
{
    const std::vector<std::pair<SmType, std::string>> want = {
        {SmType::Probe, "probe"},
        {SmType::Move, "move"},
        {SmType::ProbeMove, "probe_move"},
        {SmType::KillMove, "kill_move"},
    };
    for (const auto &[type, name] : want) {
        EXPECT_EQ(std::string(toString(type)), name);
        verify::Choice c;
        c.type = type;
        EXPECT_EQ(verify::choiceToJson(c)["type"].asString(), name);
    }
}

TEST(EnumNamesGolden, SmActions)
{
    const std::vector<std::pair<SmAction, std::string>> want = {
        {SmAction::Deliver, "deliver"},
        {SmAction::Delay, "delay"},
        {SmAction::Drop, "drop"},
    };
    for (const auto &[action, name] : want) {
        verify::Choice c;
        c.action = action;
        EXPECT_EQ(verify::choiceToJson(c)["action"].asString(), name);
    }
}

TEST(EnumNamesGolden, ProtocolMutations)
{
    const std::vector<std::pair<ProtocolMutation, std::string>> want = {
        {ProtocolMutation::None, "none"},
        {ProtocolMutation::SkipKillMove, "skip-kill-move"},
        {ProtocolMutation::SkipCancelUnfreeze, "skip-cancel-unfreeze"},
    };
    for (const auto &[mutation, name] : want) {
        EXPECT_EQ(std::string(toString(mutation)), name);
        verify::RunSpec r;
        r.mutation = mutation;
        EXPECT_EQ(verify::runSpecToJson(r)["mutation"].asString(), name);
    }
}

TEST(EnumNamesGolden, FaultKinds)
{
    using fault::FaultKind;
    const std::vector<std::pair<FaultKind, std::string>> want = {
        {FaultKind::LinkFail, "link"},
        {FaultKind::RouterFail, "router"},
        {FaultKind::Corrupt, "corrupt"},
        {FaultKind::Drop, "drop"},
        {FaultKind::RandomLinks, "random-links"},
        {FaultKind::LinkOutage, "link-outage"},
        {FaultKind::RouterOutage, "router-outage"},
        {FaultKind::Flaky, "flaky"},
        {FaultKind::FlakyLinks, "flaky-links"},
    };
    for (const auto &[kind, name] : want)
        EXPECT_EQ(std::string(toString(kind)), name);
}

TEST(EnumNamesGolden, FaultTraceEvents)
{
    // One event of every kind the injector applies (the two macros
    // expand into link and flaky events first), one per cycle, so the
    // fault-category trace lists their event names in this order.
    NetworkConfig cfg;
    cfg.vcsPerVnet = 3;
    cfg.scheme = DeadlockScheme::None;
    auto net = buildNetwork(std::make_shared<Topology>(makeMesh(4, 4)),
                            cfg, RoutingKind::WestFirst);
    std::stringstream ss;
    net->setTracer(std::make_unique<obs::Tracer>(
        std::make_unique<obs::JsonlSink>(ss)));
    std::string err;
    const obs::JsonValue doc = obs::JsonValue::parse(
        R"({"schema": "spin-faults/v2",
            "events": [
              {"kind": "link", "cycle": 2, "src": 1, "dst": 2},
              {"kind": "router", "cycle": 3, "router": 15},
              {"kind": "corrupt", "cycle": 4, "src": 4, "dst": 5},
              {"kind": "drop", "cycle": 5, "src": 4, "dst": 5},
              {"kind": "link-outage", "cycle": 6, "src": 8, "dst": 9,
               "duration": 4},
              {"kind": "router-outage", "cycle": 7, "router": 10,
               "duration": 4},
              {"kind": "flaky", "cycle": 8, "src": 12, "dst": 13,
               "window": 4, "prob": 0.5, "seed": 7}
            ]})",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    fault::FaultSchedule fs;
    ASSERT_TRUE(fault::FaultSchedule::fromJson(doc, fs, err)) << err;
    net->attachFaults(std::move(fs));
    net->run(12);
    net->trace()->flush();

    std::vector<std::string> events;
    std::string line;
    while (std::getline(ss, line)) {
        const obs::JsonValue j = obs::JsonValue::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err;
        if (j["cat"].asString() == "fault")
            events.push_back(j["ev"].asString());
    }
    const std::vector<std::string> want = {
        "link_fail",   "router_fail",   "corrupt_arm", "drop_arm",
        "link_outage", "router_outage", "flaky_arm",
    };
    EXPECT_EQ(events, want);
}

TEST(EnumNamesGolden, RoutingKinds)
{
    const std::vector<std::pair<RoutingKind, std::string>> want = {
        {RoutingKind::XyDor, "xy-dor"},
        {RoutingKind::WestFirst, "west-first"},
        {RoutingKind::MinimalAdaptive, "minimal-adaptive"},
        {RoutingKind::EscapeVc, "escape-vc"},
        {RoutingKind::TorusBubble, "torus-bubble-dor"},
        {RoutingKind::UgalDally, "ugal-dally"},
        {RoutingKind::UgalSpin, "ugal-spin"},
        {RoutingKind::FavorsMin, "favors-min"},
        {RoutingKind::FavorsNMin, "favors-nmin"},
    };
    for (const auto &[kind, name] : want) {
        EXPECT_EQ(std::string(toString(kind)), name);
        EXPECT_EQ(makeRouting(kind)->name(), name);
    }
}

TEST(EnumNamesGolden, Patterns)
{
    const std::vector<std::pair<Pattern, std::string>> want = {
        {Pattern::UniformRandom, "uniform-random"},
        {Pattern::BitComplement, "bit-complement"},
        {Pattern::Transpose, "transpose"},
        {Pattern::Tornado, "tornado"},
        {Pattern::BitReverse, "bit-reverse"},
        {Pattern::BitRotation, "bit-rotation"},
        {Pattern::Shuffle, "shuffle"},
        {Pattern::Neighbor, "neighbor"},
    };
    for (const auto &[pattern, name] : want)
        EXPECT_EQ(std::string(toString(pattern)), name);
}

TEST(EnumNamesGolden, DeadlockSchemes)
{
    const std::vector<std::pair<DeadlockScheme, std::string>> want = {
        {DeadlockScheme::None, "none"},
        {DeadlockScheme::Spin, "spin"},
        {DeadlockScheme::StaticBubble, "static-bubble"},
    };
    for (const auto &[scheme, name] : want)
        EXPECT_EQ(std::string(toString(scheme)), name);
}

TEST(EnumNamesGolden, FsmStates)
{
    // The model checker's transition checks write both views' names
    // into counterexample messages.
    const std::vector<std::pair<InitState, std::string>> init = {
        {InitState::Off, "Off"},
        {InitState::DetectDeadlock, "DetectDeadlock"},
        {InitState::MoveWait, "MoveWait"},
        {InitState::FwdProgress, "FwdProgress"},
        {InitState::ProbeMoveWait, "ProbeMoveWait"},
        {InitState::KillMoveWait, "KillMoveWait"},
    };
    for (const auto &[state, name] : init)
        EXPECT_EQ(std::string(toString(state)), name);

    const std::vector<std::pair<SpinState, std::string>> paper = {
        {SpinState::Off, "S_OFF"},
        {SpinState::DetectDeadlock, "S_DD"},
        {SpinState::Move, "S_Move"},
        {SpinState::Frozen, "S_Frozen"},
        {SpinState::ForwardProgress, "S_Forward_Progress"},
        {SpinState::ProbeMove, "S_Probe_Move"},
        {SpinState::KillMove, "S_kill_move"},
    };
    for (const auto &[state, name] : paper)
        EXPECT_EQ(std::string(toString(state)), name);
}

} // namespace
} // namespace spin
