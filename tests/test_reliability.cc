/**
 * @file
 * Tests for the end-to-end reliability layer (docs/FAULTS.md): the
 * spin-faults/v2 transient grammar, link-level retry and NIC
 * retransmission under a fault barrage (exactly-once delivery), the
 * escalation ladder (abandon counter, livelock watchdog), warmup
 * semantics of the reliability window counters, fault-hook parity on
 * the forced-send rotation path, and the campaign's reliability
 * dimension (expansion, determinism across worker counts).
 */

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/Campaign.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultInjector.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"
#include "topology/Mesh.hh"

namespace spin
{
namespace
{

fault::FaultSchedule
parseSchedule(const char *json)
{
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(json, &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    fault::FaultSchedule fs;
    std::string err;
    EXPECT_TRUE(fault::FaultSchedule::fromJson(doc, fs, err)) << err;
    return fs;
}

/** A mesh with the reliability protocol on and test-sized knobs. */
std::unique_ptr<Network>
relNet(int x, int y, RoutingKind kind, const ReliabilityConfig &rel)
{
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 3;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::None;
    cfg.reliability = rel;
    cfg.reliability.enabled = true;
    return buildNetwork(std::make_shared<Topology>(makeMesh(x, y)), cfg,
                        kind);
}

/** Per-flow delivery record fed by the eject listener, which fires
 *  only for fresh (post-duplicate-suppression) deliveries. */
struct Audit
{
    std::map<std::pair<NodeId, NodeId>, std::set<std::uint64_t>> flows;
    std::uint64_t duplicates = 0;

    void attach(Network &net)
    {
        net.setEjectListener([this](const PacketPtr &pkt) {
            if (!flows[{pkt->src, pkt->dest}].insert(pkt->e2eSeq).second)
                ++duplicates;
        });
    }

    /** Flows whose delivered sequence numbers are not 0..n-1. */
    std::uint64_t gaps() const
    {
        std::uint64_t g = 0;
        for (const auto &kv : flows)
            if (kv.second.size() != *kv.second.rbegin() + 1)
                ++g;
        return g;
    }
};

// ---------------------------------------------------------------------
// spin-faults/v2 grammar
// ---------------------------------------------------------------------

TEST(FaultScheduleV2Test, ParsesAndRoundTripsTransientArms)
{
    const fault::FaultSchedule fs = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [
                {"kind": "link-outage", "cycle": 10, "src": 1,
                 "dst": 2, "duration": 40},
                {"kind": "router-outage", "cycle": 20, "router": 5,
                 "duration": 30},
                {"kind": "flaky", "cycle": 30, "src": 2, "dst": 3,
                 "window": 100, "prob": 0.25},
                {"kind": "flaky-links", "cycle": 40, "count": 2,
                 "seed": 9, "window": 50, "prob": 0.5}
            ]})");
    ASSERT_EQ(fs.events.size(), 4u);
    EXPECT_EQ(fs.events[0].kind, fault::FaultKind::LinkOutage);
    EXPECT_EQ(fs.events[1].kind, fault::FaultKind::RouterOutage);
    EXPECT_EQ(fs.events[2].kind, fault::FaultKind::Flaky);
    EXPECT_EQ(fs.events[3].kind, fault::FaultKind::FlakyLinks);

    fault::FaultSchedule back;
    std::string err;
    ASSERT_TRUE(fault::FaultSchedule::fromJson(fs.toJson(), back, err))
        << err;
    EXPECT_EQ(back.toJson().dump(), fs.toJson().dump());
}

TEST(FaultScheduleV2Test, V2KindsNeedTheV2SchemaDeclaration)
{
    // Only spin-faults/v2 parses: a document declaring the retired v1
    // schema is rejected whatever its kinds, and the error names v2.
    for (const char *kind : {"link-outage", "link"}) {
        std::string perr;
        const obs::JsonValue doc = obs::JsonValue::parse(
            std::string(R"({"schema": "spin-faults/v1", "events": [)") +
                R"({"kind": ")" + kind +
                R"(", "cycle": 1, "src": 0, "dst": 1, "duration": 5}]})",
            &perr);
        ASSERT_TRUE(perr.empty()) << perr;
        fault::FaultSchedule fs;
        std::string err;
        EXPECT_FALSE(fault::FaultSchedule::fromJson(doc, fs, err)) << kind;
        EXPECT_NE(err.find("spin-faults/v2"), std::string::npos) << err;
    }
}

TEST(FaultScheduleV2Test, FlakyLinksConcretizesDeterministically)
{
    const Topology topo = makeMesh(4, 4);
    const fault::FaultSchedule fs = parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "flaky-links", "cycle": 5, "count": 3,
                        "seed": 21, "window": 60, "prob": 0.1}]})");
    const std::vector<fault::FaultEvent> a = fs.concretize(topo);
    const std::vector<fault::FaultEvent> b = fs.concretize(topo);
    ASSERT_EQ(a.size(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, fault::FaultKind::Flaky);
        EXPECT_EQ(a[i].src, b[i].src);
        EXPECT_EQ(a[i].dst, b[i].dst);
    }
}

// ---------------------------------------------------------------------
// Exactly-once delivery under transient faults
// ---------------------------------------------------------------------

TEST(ReliabilityProtocolTest, ExactlyOnceUnderTransientBarrage)
{
    ReliabilityConfig rel;
    rel.ackTimeout = 64;
    auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [
                {"kind": "flaky", "cycle": 10, "src": 5, "dst": 6,
                 "window": 150, "prob": 0.4, "seed": 3},
                {"kind": "link-outage", "cycle": 40, "src": 9,
                 "dst": 10, "duration": 60},
                {"kind": "corrupt", "cycle": 20, "src": 1, "dst": 2},
                {"kind": "drop", "cycle": 30, "src": 2, "dst": 3}
            ]})"));
    Audit audit;
    audit.attach(*net);

    // Row traffic keeps every armed link busy through its window.
    for (int wave = 0; wave < 50; ++wave) {
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c + 1 < 4; ++c)
                net->offerPacket(
                    net->makePacket(4 * r + c, 4 * r + c + 1, 0, 3));
        for (int i = 0; i < 5; ++i)
            net->step();
    }
    for (int i = 0; i < 5000 && net->packetsInFlight() > 0; ++i)
        net->step();

    const Stats &st = net->stats();
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_EQ(audit.duplicates, 0u);
    EXPECT_EQ(audit.gaps(), 0u);
    EXPECT_EQ(st.packetsAbandoned, 0u);
    EXPECT_EQ(st.packetsLostToFaults, 0u);
    // The barrage actually bit: the per-hop checksum saw corruption
    // and the end-to-end layer had to resend at least the dropped
    // packet.
    EXPECT_GT(st.crcFails, 0u);
    EXPECT_GT(st.retransmits, 0u);
    EXPECT_GT(st.recoveredPackets, 0u);
}

TEST(ReliabilityProtocolTest, LateAcksAreSuppressedAsDuplicates)
{
    // An ack timeout shorter than any round trip forces spurious
    // retransmissions of packets that already arrived; the destination
    // must swallow every copy and the listener must still see each
    // sequence number exactly once.
    ReliabilityConfig rel;
    rel.ackTimeout = 1;
    rel.maxRetransmits = 8;
    auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
    Audit audit;
    audit.attach(*net);

    for (int wave = 0; wave < 10; ++wave) {
        net->offerPacket(net->makePacket(0, 15, 0, 3));
        net->offerPacket(net->makePacket(12, 3, 0, 3));
        for (int i = 0; i < 4; ++i)
            net->step();
    }
    for (int i = 0; i < 3000 && net->packetsInFlight() > 0; ++i)
        net->step();

    const Stats &st = net->stats();
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GT(st.dupDrops, 0u);
    EXPECT_EQ(audit.duplicates, 0u);
    EXPECT_EQ(audit.gaps(), 0u);
    EXPECT_EQ(st.packetsAbandoned, 0u);
}

// ---------------------------------------------------------------------
// Escalation ladder: abandon counter and livelock watchdog
// ---------------------------------------------------------------------

TEST(ReliabilityLadderTest, UnreachableDestinationIsAbandoned)
{
    ReliabilityConfig rel;
    rel.ackTimeout = 16;
    rel.maxRetransmits = 2;
    auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "router", "cycle": 5, "router": 5}]})"));

    for (int i = 0; i < 4; ++i)
        net->offerPacket(net->makePacket(0, 5, 0, 3));
    // Fixed-length run: between attempts nothing is in flight -- the
    // pending work is the source NIC's backoff timer -- so a
    // drain-until-empty loop would return before any timeout fires.
    net->run(2000);

    // Every copy went unroutable, the ladder ran out of attempts, and
    // the flow was retired with the loss accounted -- not wedged.
    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_GE(net->stats().packetsAbandoned, 4u);
    EXPECT_GT(net->stats().retransmits, 0u);
}

TEST(ReliabilityLadderTest, WatchdogAlarmsOnceForStuckPackets)
{
    // Attempts keep failing well past the cycle budget, so the
    // watchdog must alarm -- exactly once per stuck packet, not once
    // per retransmission.
    ReliabilityConfig rel;
    rel.ackTimeout = 8;
    rel.maxRetransmits = 6;
    rel.watchdogBudget = 60;
    auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [{"kind": "router", "cycle": 5, "router": 5}]})"));

    net->offerPacket(net->makePacket(0, 5, 0, 3));
    // Fixed-length run for the same reason as above: the backoff
    // timers tick while nothing is in flight.
    net->run(4000);

    EXPECT_EQ(net->packetsInFlight(), 0u);
    EXPECT_EQ(net->stats().watchdogAlarms, 1u);
    EXPECT_GE(net->stats().packetsAbandoned, 1u);
}

// ---------------------------------------------------------------------
// Measurement-window semantics
// ---------------------------------------------------------------------

TEST(ReliabilityStatsTest, WindowCountersResetAtMeasurement)
{
    ReliabilityConfig rel;
    rel.ackTimeout = 1; // force dupDrops and retransmits during warmup
    auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
    net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [
                {"kind": "corrupt", "cycle": 5, "src": 1, "dst": 2},
                {"kind": "drop", "cycle": 5, "src": 5, "dst": 6}
            ]})"));

    for (int wave = 0; wave < 10; ++wave) {
        net->offerPacket(net->makePacket(0, 3, 0, 3));
        net->offerPacket(net->makePacket(4, 7, 0, 3));
        for (int i = 0; i < 4; ++i)
            net->step();
    }
    for (int i = 0; i < 3000 && net->packetsInFlight() > 0; ++i)
        net->step();

    const Stats &st = net->stats();
    EXPECT_GT(st.crcFails + st.linkRetries, 0u);
    EXPECT_GT(st.retransmits, 0u);
    EXPECT_GT(st.dupDrops, 0u);

    // Unlike linksFailed/routersFailed (structural damage), every
    // reliability counter is a window event rate and must clear.
    net->beginMeasurement();
    EXPECT_EQ(st.crcFails, 0u);
    EXPECT_EQ(st.linkRetries, 0u);
    EXPECT_EQ(st.retransmits, 0u);
    EXPECT_EQ(st.dupDrops, 0u);
    EXPECT_EQ(st.recoveredPackets, 0u);
    EXPECT_EQ(st.packetsAbandoned, 0u);
    EXPECT_EQ(st.watchdogAlarms, 0u);
}

TEST(ReliabilityStatsTest, OutageHealedBeforeMeasurementLeavesNoTrace)
{
    // A transient outage that is fully recovered -- window closed,
    // every retransmission delivered, fabric drained -- before
    // beginMeasurement must leave the measured aggregates
    // byte-identical to a run that never saw the fault.
    const auto run = [](bool faulty) {
        ReliabilityConfig rel;
        rel.ackTimeout = 32;
        auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
        if (faulty)
            net->attachFaults(parseSchedule(
                R"({"schema": "spin-faults/v2",
                    "events": [{"kind": "link-outage", "cycle": 10,
                                "src": 1, "dst": 2,
                                "duration": 40}]})"));

        // Warmup traffic across the doomed link, then a full drain.
        for (int wave = 0; wave < 8; ++wave) {
            net->offerPacket(net->makePacket(0, 3, 0, 3));
            net->offerPacket(net->makePacket(1, 2, 0, 3));
            for (int i = 0; i < 5; ++i)
                net->step();
        }
        while (net->now() < 800)
            net->step();
        EXPECT_EQ(net->packetsInFlight(), 0u);

        net->beginMeasurement();
        for (int wave = 0; wave < 8; ++wave) {
            net->offerPacket(net->makePacket(0, 15, 0, 3));
            net->offerPacket(net->makePacket(5, 10, 0, 3));
            for (int i = 0; i < 5; ++i)
                net->step();
        }
        while (net->now() < 1200)
            net->step();

        const obs::JsonValue j = net->stats().toJson();
        return j["traffic"].dump() + "|" + j["reliability"].dump();
    };

    const std::string clean = run(false);
    const std::string healed = run(true);
    EXPECT_EQ(clean, healed);
}

// ---------------------------------------------------------------------
// Fault-hook parity on the forced-send rotation path
// ---------------------------------------------------------------------

TEST(ForceSendParityTest, RotationTraverseHonoursTransientArms)
{
    // SPIN rotations bypass the normal link-traversal path, so the
    // injector exposes a dedicated hook; it must honour the same arms
    // as a regular traversal (the historical gap: forceSend ignored
    // them entirely).
    ReliabilityConfig rel;
    auto net = relNet(4, 4, RoutingKind::WestFirst, rel);
    fault::FaultInjector &fi = net->attachFaults(parseSchedule(
        R"({"schema": "spin-faults/v2",
            "events": [
                {"kind": "corrupt", "cycle": 1, "src": 0, "dst": 1},
                {"kind": "drop", "cycle": 1, "src": 1, "dst": 2}
            ]})"));
    net->run(3); // injector arms both events

    const auto linkBetween = [&](RouterId src, RouterId dst) {
        for (int li = 0; li < net->numLinks(); ++li)
            if (net->link(li).spec().src == src &&
                net->link(li).spec().dst == dst)
                return li;
        return -1;
    };

    const int corruptLi = linkBetween(0, 1);
    ASSERT_GE(corruptLi, 0);
    PacketPtr a = net->makePacket(0, 1, 0, 3);
    fi.onRotationTraverse(corruptLi, *a, net->now(), a->sizeFlits);
    EXPECT_TRUE(a->corrupted);
    EXPECT_GT(net->stats().crcFails, 0u);

    const int dropLi = linkBetween(1, 2);
    ASSERT_GE(dropLi, 0);
    PacketPtr b = net->makePacket(1, 2, 0, 3);
    fi.onRotationTraverse(dropLi, *b, net->now(), b->sizeFlits);
    EXPECT_TRUE(b->faultDropped);

    // Arms are one-shot: a second rotation over the same link is clean.
    PacketPtr c = net->makePacket(0, 1, 0, 3);
    fi.onRotationTraverse(corruptLi, *c, net->now(), c->sizeFlits);
    EXPECT_FALSE(c->corrupted);
}

// ---------------------------------------------------------------------
// Campaign reliability dimension
// ---------------------------------------------------------------------

exp::SweepSpec
relSpec()
{
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(
        R"({"name": "unit-rel", "topology": "mesh4x4",
            "presets": ["WestFirst_3VC"],
            "patterns": ["uniform-random"],
            "rates": [0.1], "seeds": [1, 2],
            "reliability": ["off", "on"],
            "warmup": 50, "measure": 150, "latencyCap": 200.0})",
        &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    exp::SweepSpec s;
    std::string err;
    EXPECT_TRUE(exp::SweepSpec::fromJson(doc, s, err)) << err;
    return s;
}

TEST(ReliabilityCampaignTest, DimensionExpandsWithRelSuffix)
{
    const std::vector<exp::Cell> cells = relSpec().expand();
    ASSERT_EQ(cells.size(), 4u); // 2 seeds x {off, on}
    int rel = 0;
    for (const exp::Cell &c : cells) {
        if (c.reliability) {
            ++rel;
            EXPECT_NE(c.id.find("__rel"), std::string::npos) << c.id;
        } else {
            EXPECT_EQ(c.id.find("__rel"), std::string::npos) << c.id;
        }
    }
    EXPECT_EQ(rel, 2);
}

TEST(ReliabilityCampaignTest, AggregateBitIdenticalAcrossWorkerCounts)
{
    const exp::SweepSpec spec = relSpec();
    exp::CampaignOptions serial;
    serial.jobs = 1;
    exp::CampaignOptions pooled;
    pooled.jobs = 4;
    const obs::JsonValue ra = exp::Campaign(spec, serial).run();
    const obs::JsonValue rb = exp::Campaign(spec, pooled).run();
    EXPECT_EQ(ra.dump(2), rb.dump(2));

    // Cell documents advertise the dimension only when it is on, so
    // pre-reliability captures stay byte-identical.
    const obs::JsonValue &cells = ra["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const obs::JsonValue &c = cells.at(i);
        const bool rel =
            c["cell"].asString().find("__rel") != std::string::npos;
        EXPECT_EQ(c.find("reliability") != nullptr, rel)
            << c["cell"].asString();
    }
}

} // namespace
} // namespace spin
