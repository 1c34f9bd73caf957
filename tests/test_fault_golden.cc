/**
 * @file
 * Golden text of the fault layer (src/fault): the JSON echo and the
 * describe() line of one event of every kind, every fromJson and
 * validate error, the expansion of both macros, and one traced run
 * that applies every concrete kind. Telemetry, forensics, campaign
 * records and committed schedules carry these strings, so the fault
 * layer may be restructured only if every one of them stays
 * byte-identical.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/Config.hh"
#include "fault/FaultInjector.hh"
#include "fault/FaultSchedule.hh"
#include "network/Network.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "obs/Tracer.hh"
#include "stats/Stats.hh"
#include "topology/Mesh.hh"

namespace spin::fault
{
namespace
{

/** A spin-faults/v2 document holding @p events (a JSON array body). */
std::string
doc(const std::string &events)
{
    return R"({"schema": "spin-faults/v2", "events": [)" + events + "]}";
}

FaultSchedule
parse(const std::string &text)
{
    std::string err;
    const obs::JsonValue d = obs::JsonValue::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    FaultSchedule fs;
    EXPECT_TRUE(FaultSchedule::fromJson(d, fs, err)) << err;
    return fs;
}

/** fromJson's error for @p text; "" when it parses. */
std::string
parseError(const std::string &text)
{
    std::string err;
    const obs::JsonValue d = obs::JsonValue::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    FaultSchedule fs;
    return FaultSchedule::fromJson(d, fs, err) ? "" : err;
}

TEST(FaultGolden, EchoAndDescriptionOfEveryKind)
{
    struct Row
    {
        const char *in;
        const char *echo;
        const char *text;
    };
    const std::vector<Row> rows = {
        {R"({"kind": "link", "cycle": 5, "src": 1, "dst": 2})",
         R"({"cycle":5,"kind":"link","src":1,"dst":2})",
         "link 1<->2 failed @ cycle 5"},
        {R"({"kind": "router", "cycle": 6, "router": 9})",
         R"({"cycle":6,"kind":"router","router":9})",
         "router 9 failed @ cycle 6"},
        {R"({"kind": "corrupt", "cycle": 7, "src": 1, "dst": 2})",
         R"({"cycle":7,"kind":"corrupt","src":1,"dst":2})",
         "corrupt on link 1->2 @ cycle 7"},
        {R"({"kind": "drop", "cycle": 8, "src": 3, "dst": 2})",
         R"({"cycle":8,"kind":"drop","src":3,"dst":2})",
         "drop on link 3->2 @ cycle 8"},
        {R"({"kind": "random-links", "cycle": 5, "count": 2, "seed": 7})",
         R"({"cycle":5,"kind":"random-links","count":2,"seed":7})",
         "2 random links @ cycle 5"},
        {R"({"kind": "link-outage", "cycle": 400, "src": 9, "dst": 10,
             "duration": 250})",
         R"({"cycle":400,"kind":"link-outage","src":9,"dst":10,"duration":250})",
         "link 9<->10 outage for 250 cycles @ cycle 400"},
        {R"({"kind": "router-outage", "cycle": 500, "router": 27,
             "duration": 200})",
         R"({"cycle":500,"kind":"router-outage","router":27,"duration":200})",
         "router 27 outage for 200 cycles @ cycle 500"},
        {R"({"kind": "flaky", "cycle": 8, "src": 2, "dst": 3,
             "window": 100, "prob": 0.25})",
         R"({"cycle":8,"kind":"flaky","src":2,"dst":3,"window":100,"prob":0.25,"seed":0})",
         "flaky link 2<->3 for 100 cycles @ cycle 8"},
        {R"({"kind": "flaky", "cycle": 9, "src": 3, "dst": 2,
             "window": 1, "prob": 1, "seed": 18446744073709551615})",
         R"({"cycle":9,"kind":"flaky","src":3,"dst":2,"window":1,"prob":1,"seed":18446744073709551615})",
         "flaky link 3<->2 for 1 cycles @ cycle 9"},
        {R"({"kind": "flaky-links", "cycle": 700, "count": 2, "seed": 9,
             "window": 50, "prob": 0.5})",
         R"({"cycle":700,"kind":"flaky-links","count":2,"seed":9,"window":50,"prob":0.5})",
         "2 flaky links for 50 cycles @ cycle 700"},
    };
    std::string all;
    for (const Row &r : rows) {
        const FaultSchedule fs = parse(doc(r.in));
        ASSERT_EQ(fs.events.size(), 1u) << r.in;
        EXPECT_EQ(fs.events[0].toJson().dump(), r.echo);
        EXPECT_EQ(describe(fs.events[0]), r.text);
        all += std::string(all.empty() ? "" : ", ") + r.in;
    }
    // The whole schedule echoes as its events' echoes, in order.
    const FaultSchedule fs = parse(doc(all));
    std::string want = R"({"schema":"spin-faults/v2","events":[)";
    for (std::size_t i = 0; i < rows.size(); ++i)
        want += std::string(i ? "," : "") + rows[i].echo;
    EXPECT_EQ(fs.toJson().dump(), want + "]}");
}

TEST(FaultGolden, ParseErrors)
{
    const std::string kinds =
        "link | router | corrupt | drop | random-links | link-outage | "
        "router-outage | flaky | flaky-links";
    const std::vector<std::pair<std::string, std::string>> rows = {
        {R"([])", "faults: top-level document must be a JSON object"},
        {R"({"events": []})", "faults: 'schema' must be 'spin-faults/v2'"},
        {R"({"schema": "spin-faults/v1", "events": []})",
         "faults: 'schema' must be 'spin-faults/v2'"},
        {R"({"schema": "spin-faults/v2"})",
         "faults: 'events' must be an array"},
        {doc(R"(3)"), "faults: event 0 must be an object"},
        {doc(R"({"kind": "meteor", "cycle": 1})"),
         "faults: event 0 has unknown kind (want " + kinds + ")"},
        {doc(R"({"cycle": 1})"),
         "faults: event 0 has unknown kind (want " + kinds + ")"},
        {doc(R"({"kind": "link", "src": 1, "dst": 2})"),
         "faults: event 0 needs a non-negative 'cycle'"},
        {doc(R"({"kind": "link", "cycle": -1, "src": 1, "dst": 2})"),
         "faults: event 0 needs a non-negative 'cycle'"},
        {doc(R"({"kind": "link", "cycle": "5", "src": 1, "dst": 2})"),
         "faults: event 0 needs a non-negative 'cycle'"},
        // The index counts from the first event.
        {doc(R"({"kind": "router", "cycle": 1, "router": 2},
                {"kind": "link", "cycle": 1, "dst": 2})"),
         "faults: event 1 needs an integer 'src'"},
        {doc(R"({"kind": "link", "cycle": 1, "src": 1})"),
         "faults: event 0 needs an integer 'dst'"},
        {doc(R"({"kind": "link", "cycle": 1, "src": "1", "dst": 2})"),
         "faults: event 0 needs an integer 'src'"},
        {doc(R"({"kind": "router", "cycle": 1})"),
         "faults: event 0 needs an integer 'router'"},
        {doc(R"({"kind": "router", "cycle": 1, "router": null})"),
         "faults: event 0 needs an integer 'router'"},
        {doc(R"({"kind": "corrupt", "cycle": 1, "dst": 2})"),
         "faults: event 0 needs an integer 'src'"},
        {doc(R"({"kind": "drop", "cycle": 1, "src": 2})"),
         "faults: event 0 needs an integer 'dst'"},
        {doc(R"({"kind": "random-links", "cycle": 1, "seed": 7})"),
         "faults: event 0 needs an integer 'count'"},
        {doc(R"({"kind": "random-links", "cycle": 1, "count": 0,
                 "seed": 7})"),
         "faults: event 0 needs count >= 1"},
        {doc(R"({"kind": "random-links", "cycle": 1, "count": -3,
                 "seed": 7})"),
         "faults: event 0 needs count >= 1"},
        {doc(R"({"kind": "random-links", "cycle": 1, "count": 2})"),
         "faults: event 0 needs an integer 'seed'"},
        {doc(R"({"kind": "link-outage", "cycle": 1, "dst": 2,
                 "duration": 5})"),
         "faults: event 0 needs an integer 'src'"},
        {doc(R"({"kind": "link-outage", "cycle": 1, "src": 1,
                 "dst": 2})"),
         "faults: event 0 needs an integer 'duration'"},
        {doc(R"({"kind": "link-outage", "cycle": 1, "src": 1, "dst": 2,
                 "duration": 0})"),
         "faults: event 0 needs duration >= 1"},
        {doc(R"({"kind": "link-outage", "cycle": 1, "src": 1, "dst": 2,
                 "duration": -5})"),
         "faults: event 0 needs duration >= 1"},
        {doc(R"({"kind": "router-outage", "cycle": 1, "duration": 5})"),
         "faults: event 0 needs an integer 'router'"},
        {doc(R"({"kind": "router-outage", "cycle": 1, "router": 3})"),
         "faults: event 0 needs an integer 'duration'"},
        {doc(R"({"kind": "router-outage", "cycle": 1, "router": 3,
                 "duration": 0})"),
         "faults: event 0 needs duration >= 1"},
        {doc(R"({"kind": "flaky", "cycle": 1, "src": 1, "window": 5,
                 "prob": 0.5})"),
         "faults: event 0 needs an integer 'dst'"},
        {doc(R"({"kind": "flaky", "cycle": 1, "src": 1, "dst": 2,
                 "prob": 0.5})"),
         "faults: event 0 needs an integer 'window'"},
        {doc(R"({"kind": "flaky", "cycle": 1, "src": 1, "dst": 2,
                 "window": 0, "prob": 0.5})"),
         "faults: event 0 needs window >= 1"},
        {doc(R"({"kind": "flaky", "cycle": 1, "src": 1, "dst": 2,
                 "window": 5})"),
         "faults: event 0 needs a 'prob' in (0, 1]"},
        {doc(R"({"kind": "flaky", "cycle": 1, "src": 1, "dst": 2,
                 "window": 5, "prob": 0})"),
         "faults: event 0 needs a 'prob' in (0, 1]"},
        {doc(R"({"kind": "flaky", "cycle": 1, "src": 1, "dst": 2,
                 "window": 5, "prob": 1.5})"),
         "faults: event 0 needs a 'prob' in (0, 1]"},
        {doc(R"({"kind": "flaky-links", "cycle": 1, "seed": 9,
                 "window": 5, "prob": 0.5})"),
         "faults: event 0 needs an integer 'count'"},
        {doc(R"({"kind": "flaky-links", "cycle": 1, "count": 0,
                 "seed": 9, "window": 5, "prob": 0.5})"),
         "faults: event 0 needs count >= 1"},
        {doc(R"({"kind": "flaky-links", "cycle": 1, "count": 2,
                 "window": 5, "prob": 0.5})"),
         "faults: event 0 needs an integer 'seed'"},
        {doc(R"({"kind": "flaky-links", "cycle": 1, "count": 2,
                 "seed": 9, "prob": 0.5})"),
         "faults: event 0 needs an integer 'window'"},
        {doc(R"({"kind": "flaky-links", "cycle": 1, "count": 2,
                 "seed": 9, "window": 0, "prob": 0.5})"),
         "faults: event 0 needs window >= 1"},
        {doc(R"({"kind": "flaky-links", "cycle": 1, "count": 2,
                 "seed": 9, "window": 5, "prob": -0.5})"),
         "faults: event 0 needs a 'prob' in (0, 1]"},
    };
    for (const auto &[text, want] : rows)
        EXPECT_EQ(parseError(text), want) << text;
}

TEST(FaultGolden, ValidateErrors)
{
    const Topology topo = makeMesh(4, 4);
    const std::vector<std::pair<std::string, std::string>> rows = {
        {R"({"kind": "link", "cycle": 1, "src": 0, "dst": 16})",
         "faults: event 1: link endpoint out of range"},
        {R"({"kind": "link", "cycle": 1, "src": -1, "dst": 0})",
         "faults: event 1: link endpoint out of range"},
        {R"({"kind": "corrupt", "cycle": 1, "src": 16, "dst": 15})",
         "faults: event 1: link endpoint out of range"},
        {R"({"kind": "link", "cycle": 1, "src": 0, "dst": 5})",
         "faults: event 1: no link between routers 0 and 5"},
        {R"({"kind": "drop", "cycle": 1, "src": 3, "dst": 3})",
         "faults: event 1: no link between routers 3 and 3"},
        {R"({"kind": "link-outage", "cycle": 1, "src": 7, "dst": 8,
             "duration": 4})",
         "faults: event 1: no link between routers 7 and 8"},
        {R"({"kind": "flaky", "cycle": 1, "src": 15, "dst": 0,
             "window": 4, "prob": 0.5})",
         "faults: event 1: no link between routers 15 and 0"},
        {R"({"kind": "router", "cycle": 1, "router": 16})",
         "faults: event 1: router out of range"},
        {R"({"kind": "router-outage", "cycle": 1, "router": -1,
             "duration": 4})",
         "faults: event 1: router out of range"},
        {R"({"kind": "random-links", "cycle": 1, "count": 25, "seed": 1})",
         "faults: event 1: count must be in [1, 24]"},
        {R"({"kind": "flaky-links", "cycle": 1, "count": 99, "seed": 1,
             "window": 4, "prob": 0.5})",
         "faults: event 1: count must be in [1, 24]"},
    };
    // Event 0 is valid, so each error names event 1.
    const std::string ok = R"({"kind": "link", "cycle": 1, "src": 0,
                               "dst": 1}, )";
    for (const auto &[event, want] : rows)
        EXPECT_EQ(parse(doc(ok + event)).validate(topo), want) << event;
    EXPECT_EQ(FaultSchedule::randomLinkFailures(0, 1, 1).validate(topo),
              "faults: event 0: count must be in [1, 24]");
    EXPECT_EQ(FaultSchedule::randomLinkFailures(24, 1, 1).validate(topo),
              "");
}

TEST(FaultGolden, MacrosExpandOn4x4Mesh)
{
    const Topology topo = makeMesh(4, 4);
    const FaultSchedule fs = parse(doc(R"(
        {"kind": "flaky-links", "cycle": 9, "count": 3, "seed": 9,
         "window": 50, "prob": 0.5},
        {"kind": "router", "cycle": 9, "router": 4},
        {"kind": "random-links", "cycle": 5, "count": 4, "seed": 7},
        {"kind": "link", "cycle": 9, "src": 0, "dst": 1})"));
    std::string lines;
    for (const FaultEvent &e : fs.concretize(topo))
        lines += e.toJson().dump() + "\n";
    // Macros expand in place; the stable sort by cycle keeps the order
    // of same-cycle events.
    EXPECT_EQ(lines,
              R"({"cycle":5,"kind":"link","src":8,"dst":12}
)"
              R"({"cycle":5,"kind":"link","src":5,"dst":9}
)"
              R"({"cycle":5,"kind":"link","src":1,"dst":2}
)"
              R"({"cycle":5,"kind":"link","src":0,"dst":4}
)"
              R"({"cycle":9,"kind":"flaky","src":2,"dst":3,"window":50,"prob":0.5,"seed":11226092914845918603}
)"
              R"({"cycle":9,"kind":"flaky","src":4,"dst":5,"window":50,"prob":0.5,"seed":13142191710065328523}
)"
              R"({"cycle":9,"kind":"flaky","src":6,"dst":7,"window":50,"prob":0.5,"seed":12712470108518027309}
)"
              R"({"cycle":9,"kind":"router","router":4}
)"
              R"({"cycle":9,"kind":"link","src":0,"dst":1}
)");
}

TEST(FaultGolden, TracedRunAppliesEveryConcreteKind)
{
    NetworkConfig cfg;
    cfg.vcsPerVnet = 3;
    cfg.scheme = DeadlockScheme::None;
    auto net = buildNetwork(std::make_shared<Topology>(makeMesh(4, 4)),
                            cfg, RoutingKind::WestFirst);
    std::stringstream ss;
    net->setTracer(std::make_unique<obs::Tracer>(
        std::make_unique<obs::JsonlSink>(ss)));
    FaultInjector &inj = net->attachFaults(parse(doc(R"(
        {"kind": "link", "cycle": 2, "src": 1, "dst": 2},
        {"kind": "link", "cycle": 3, "src": 2, "dst": 1},
        {"kind": "router", "cycle": 3, "router": 15},
        {"kind": "router", "cycle": 4, "router": 15},
        {"kind": "corrupt", "cycle": 4, "src": 4, "dst": 5},
        {"kind": "drop", "cycle": 5, "src": 5, "dst": 4},
        {"kind": "link-outage", "cycle": 6, "src": 8, "dst": 9,
         "duration": 20},
        {"kind": "router-outage", "cycle": 7, "router": 10,
         "duration": 20},
        {"kind": "flaky", "cycle": 8, "src": 12, "dst": 13, "window": 30,
         "prob": 0.5, "seed": 7},
        {"kind": "flaky", "cycle": 8, "src": 0, "dst": 4, "window": 30,
         "prob": 0.5},
        {"kind": "flaky-links", "cycle": 9, "count": 2, "seed": 3,
         "window": 30, "prob": 0.5})")));
    for (NodeId n = 0; n < 16; ++n)
        net->offerPacket(net->makePacket(n, (n + 5) % 16, 0, 4));
    net->run(120);
    net->trace()->flush();

    std::string lines;
    std::string line;
    while (std::getline(ss, line)) {
        std::string err;
        const obs::JsonValue j = obs::JsonValue::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err;
        if (j["cat"].asString() == "fault")
            lines += line + "\n";
    }
    // A router target traces the router and no a0; a link target traces
    // src with a0 = dst. A repeated router event is traced but not
    // counted; a repeated link event is counted.
    EXPECT_EQ(lines,
              R"({"t":2,"cat":"fault","ev":"link_fail","router":1,"a0":2}
)"
              R"({"t":3,"cat":"fault","ev":"link_fail","router":2,"a0":1}
)"
              R"({"t":3,"cat":"fault","ev":"router_fail","router":15}
)"
              R"({"t":3,"cat":"fault","ev":"reroute","router":2,"pkt":4,"a0":8}
)"
              R"({"t":4,"cat":"fault","ev":"router_fail","router":15}
)"
              R"({"t":4,"cat":"fault","ev":"corrupt_arm","router":4,"a0":5}
)"
              R"({"t":4,"cat":"fault","ev":"flit_corrupt","router":4,"pkt":1,"a0":14}
)"
              R"({"t":5,"cat":"fault","ev":"drop_arm","router":5,"a0":4}
)"
              R"({"t":6,"cat":"fault","ev":"link_outage","router":8,"a0":9}
)"
              R"({"t":6,"cat":"fault","ev":"flit_drop","router":5,"pkt":8,"a0":15}
)"
              R"({"t":6,"cat":"fault","ev":"flit_corrupt","router":8,"pkt":5,"a0":28}
)"
              R"({"t":6,"cat":"fault","ev":"flit_corrupt","router":9,"pkt":12,"a0":29}
)"
              R"({"t":7,"cat":"fault","ev":"router_outage","router":10}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":8,"pkt":9,"a0":28}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":9,"pkt":6,"a0":32}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":9,"pkt":12,"a0":29}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":11,"a0":36}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":12,"a0":33}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":14,"a0":25}
)"
              R"({"t":7,"cat":"fault","ev":"flit_corrupt","router":14,"pkt":14,"a0":39}
)"
              R"({"t":8,"cat":"fault","ev":"flaky_arm","router":12,"a0":13}
)"
              R"({"t":8,"cat":"fault","ev":"flaky_arm","router":0,"a0":4}
)"
              R"({"t":8,"cat":"fault","ev":"packet_unroutable","router":11,"pkt":11,"port":1,"vc":0}
)"
              R"({"t":8,"cat":"fault","ev":"flit_corrupt","router":8,"pkt":5,"a0":28}
)"
              R"({"t":8,"cat":"fault","ev":"flit_corrupt","router":9,"pkt":12,"a0":29}
)"
              R"({"t":8,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":7,"a0":36}
)"
              R"({"t":8,"cat":"fault","ev":"flit_corrupt","router":14,"pkt":14,"a0":39}
)"
              R"({"t":9,"cat":"fault","ev":"flaky_arm","router":12,"a0":13}
)"
              R"({"t":9,"cat":"fault","ev":"flaky_arm","router":5,"a0":6}
)"
              R"({"t":9,"cat":"fault","ev":"flit_corrupt","router":6,"pkt":4,"a0":19}
)"
              R"({"t":9,"cat":"fault","ev":"flit_corrupt","router":8,"pkt":5,"a0":28}
)"
              R"({"t":9,"cat":"fault","ev":"flit_corrupt","router":9,"pkt":12,"a0":29}
)"
              R"({"t":9,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":7,"a0":36}
)"
              R"({"t":9,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":14,"a0":25}
)"
              R"({"t":10,"cat":"fault","ev":"flit_corrupt","router":10,"pkt":14,"a0":25}
)"
              R"({"t":11,"cat":"fault","ev":"flit_corrupt","router":4,"pkt":12,"a0":3}
)"
              R"({"t":12,"cat":"fault","ev":"flit_corrupt","router":6,"pkt":4,"a0":19}
)"
              R"({"t":13,"cat":"fault","ev":"flit_corrupt","router":4,"pkt":12,"a0":3}
)");
    const Stats &st = net->stats();
    EXPECT_EQ(st.linksFailed, 2u);
    EXPECT_EQ(st.routersFailed, 1u);
    EXPECT_EQ(st.transientFaults, 8u);
    EXPECT_EQ(
        inj.toJson().dump(),
        R"({"schedule":{"schema":"spin-faults/v2","events":[)"
        R"({"cycle":2,"kind":"link","src":1,"dst":2},)"
        R"({"cycle":3,"kind":"link","src":2,"dst":1},)"
        R"({"cycle":3,"kind":"router","router":15},)"
        R"({"cycle":4,"kind":"router","router":15},)"
        R"({"cycle":4,"kind":"corrupt","src":4,"dst":5},)"
        R"({"cycle":5,"kind":"drop","src":5,"dst":4},)"
        R"({"cycle":6,"kind":"link-outage","src":8,"dst":9,"duration":20},)"
        R"({"cycle":7,"kind":"router-outage","router":10,"duration":20},)"
        R"({"cycle":8,"kind":"flaky","src":12,"dst":13,"window":30,"prob":0.5,"seed":7},)"
        R"({"cycle":8,"kind":"flaky","src":0,"dst":4,"window":30,"prob":0.5,"seed":0},)"
        R"({"cycle":9,"kind":"flaky-links","count":2,"seed":3,"window":30,"prob":0.5}]},)"
        R"("applied":[)"
        R"({"cycle":2,"kind":"link","src":1,"dst":2},)"
        R"({"cycle":3,"kind":"link","src":2,"dst":1},)"
        R"({"cycle":3,"kind":"router","router":15},)"
        R"({"cycle":4,"kind":"router","router":15},)"
        R"({"cycle":4,"kind":"corrupt","src":4,"dst":5},)"
        R"({"cycle":5,"kind":"drop","src":5,"dst":4},)"
        R"({"cycle":6,"kind":"link-outage","src":8,"dst":9,"duration":20},)"
        R"({"cycle":7,"kind":"router-outage","router":10,"duration":20},)"
        R"({"cycle":8,"kind":"flaky","src":12,"dst":13,"window":30,"prob":0.5,"seed":7},)"
        R"({"cycle":8,"kind":"flaky","src":0,"dst":4,"window":30,"prob":0.5,"seed":0},)"
        R"({"cycle":9,"kind":"flaky","src":12,"dst":13,"window":30,"prob":0.5,"seed":3399065763314498484},)"
        R"({"cycle":9,"kind":"flaky","src":5,"dst":6,"window":30,"prob":0.5,"seed":179802636345450374}],)"
        R"("pending":0,"failedLinks":6,"deadRouters":1})");
}

} // namespace
} // namespace spin::fault
