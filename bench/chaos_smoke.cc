/**
 * @file
 * Chaos smoke: end-to-end reliable delivery under a transient-fault
 * barrage. An 8x8 mesh under moderate uniform-random load runs with
 * the reliability protocol on while a fixed spin-faults/v2 schedule
 * throws flaky links, a link outage, a router outage, and one-shot
 * drop/corrupt arms at it. After injection stops the network drains,
 * and the bench audits the delivery record:
 *
 *   * exactly-once -- every (source, destination) flow ejected its
 *     sequence numbers 0..n-1 with no gap and no duplicate;
 *   * nothing lost -- no packet retired by a fault path, none
 *     abandoned by the escalation ladder, zero left in flight;
 *   * deterministic -- the JSON report is bit-identical for any
 *     --threads N (CI diffs -t1 against -t4).
 *
 * Exit code 0 when the audit passes, 1 otherwise (with the violations
 * printed), so CI can gate on it directly.
 */

#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "bench/BenchUtil.hh"
#include "fault/FaultSchedule.hh"
#include "topology/Mesh.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;
using namespace spin::bench;

namespace
{

/**
 * The barrage. Every arm is transient or one-shot and every window
 * closes before the drain, so a correct protocol must converge to
 * exactly-once delivery; anything left over is a bug, not bad luck.
 */
const char *kChaosSchedule = R"({
  "schema": "spin-faults/v2",
  "events": [
    {"kind": "flaky-links", "cycle": 100, "count": 6, "seed": 11,
     "window": 1200, "prob": 0.02},
    {"kind": "link-outage", "cycle": 300, "src": 9, "dst": 10,
     "duration": 250},
    {"kind": "router-outage", "cycle": 700, "router": 27,
     "duration": 200},
    {"kind": "drop", "cycle": 450, "src": 18, "dst": 19},
    {"kind": "drop", "cycle": 900, "src": 35, "dst": 43},
    {"kind": "corrupt", "cycle": 500, "src": 28, "dst": 36},
    {"kind": "corrupt", "cycle": 1100, "src": 52, "dst": 53}
  ]
})";

struct FlowAudit
{
    std::uint64_t delivered = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t maxSeq = 0;
    std::set<std::uint64_t> seen;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = Options::parse(
        argc, argv,
        {"--fast", "--seed", "--threads", "--json", "--metrics",
         "--metrics-interval", "--trace", "--faults", "--wall-limit"});
    // The point of the bench is the protocol; it is not optional here.
    opt.reliability = true;

    const auto topo = std::make_shared<Topology>(makeMesh(8, 8));
    NetworkConfig cfg;
    cfg.name = "chaos-smoke";
    cfg.vnets = 1;
    cfg.vcsPerVnet = 3;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    opt.apply(cfg);

    auto net = buildNetwork(topo, cfg, RoutingKind::MinimalAdaptive);
    attachMetrics(*net, opt, "chaos-smoke");
    attachTrace(*net, opt);

    fault::FaultSchedule fs;
    std::string ferr;
    if (!opt.faultsPath.empty()) {
        if (!fault::FaultSchedule::fromFile(opt.faultsPath, fs, ferr))
            SPIN_FATAL(ferr);
    } else {
        const obs::JsonValue doc = obs::JsonValue::parse(kChaosSchedule);
        const bool ok = fault::FaultSchedule::fromJson(doc, fs, ferr);
        SPIN_ASSERT(ok, "builtin chaos schedule invalid: ", ferr);
    }
    net->attachFaults(std::move(fs));

    // Delivery record, keyed by flow. The listener fires once per
    // retired packet *after* duplicate suppression, so a duplicate
    // sequence number reaching it is a protocol violation in itself.
    std::map<std::pair<NodeId, NodeId>, FlowAudit> flows;
    std::uint64_t recovered = 0;
    net->setEjectListener([&](const PacketPtr &pkt) {
        FlowAudit &fa = flows[{pkt->src, pkt->dest}];
        if (!fa.seen.insert(pkt->e2eSeq).second)
            ++fa.duplicates;
        ++fa.delivered;
        fa.maxSeq = std::max(fa.maxSeq, pkt->e2eSeq);
        if (pkt->attempt > 0 || pkt->linkRetried)
            ++recovered;
    });

    // Inject through the whole fault barrage, then drain. Even the
    // --fast window outlasts the last armed fault (cycle 1400), so
    // every arm always fires.
    const Cycle inject = opt.fast ? 1500 : 6000;
    const Cycle drainBudget = 60000;
    InjectorConfig icfg;
    icfg.injectionRate = 0.10;
    icfg.seed = cfg.seed + 1;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);

    WallLimitGuard wall(opt.wallLimit);
    for (Cycle i = 0; i < inject; ++i) {
        inj.tick();
        net->step();
        wall.check(*net);
    }
    Cycle drained = 0;
    while (net->packetsInFlight() > 0 && drained < drainBudget) {
        net->step();
        wall.check(*net);
        ++drained;
    }

    // ------------------------------------------------------------------
    // Audit.
    // ------------------------------------------------------------------
    const Stats &s = net->stats();
    std::vector<std::string> violations;
    const auto expect = [&](bool ok, const std::string &what) {
        if (!ok)
            violations.push_back(what);
    };

    std::uint64_t delivered = 0, duplicates = 0, gaps = 0;
    for (const auto &kv : flows) {
        const FlowAudit &fa = kv.second;
        delivered += fa.delivered;
        duplicates += fa.duplicates;
        // Exactly-once: n deliveries must cover seqs 0..n-1.
        if (fa.seen.size() != fa.maxSeq + 1)
            ++gaps;
    }
    expect(duplicates == 0, "duplicate deliveries: " +
                                std::to_string(duplicates));
    expect(gaps == 0, "flows with sequence gaps: " +
                          std::to_string(gaps));
    expect(net->packetsInFlight() == 0,
           "packets still in flight after drain: " +
               std::to_string(net->packetsInFlight()));
    expect(s.packetsAbandoned == 0,
           "packets abandoned: " + std::to_string(s.packetsAbandoned));
    expect(s.packetsLostToFaults == 0,
           "packets lost to faults: " +
               std::to_string(s.packetsLostToFaults));
    expect(s.crcFails > 0 || s.retransmits > 0,
           "the barrage never hit anything; schedule is inert");

    std::printf("chaos-smoke: %llu flows, %llu delivered, %llu "
                "recovered, %llu retransmits, %llu link retries, %llu "
                "dup drops, %llu crc fails, drained in %llu cycles\n",
                static_cast<unsigned long long>(flows.size()),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(recovered),
                static_cast<unsigned long long>(s.retransmits),
                static_cast<unsigned long long>(s.linkRetries),
                static_cast<unsigned long long>(s.dupDrops),
                static_cast<unsigned long long>(s.crcFails),
                static_cast<unsigned long long>(drained));
    for (const std::string &v : violations)
        std::printf("VIOLATION: %s\n", v.c_str());
    std::printf("chaos-smoke: %s\n",
                violations.empty() ? "PASS" : "FAIL");

    if (!opt.jsonPath.empty()) {
        BenchReporter rep("chaos_smoke", opt);
        obs::JsonValue audit = obs::JsonValue::object();
        audit.set("flows", obs::JsonValue(
                               static_cast<std::uint64_t>(flows.size())));
        audit.set("delivered", obs::JsonValue(delivered));
        audit.set("duplicates", obs::JsonValue(duplicates));
        audit.set("sequenceGaps", obs::JsonValue(gaps));
        audit.set("recovered", obs::JsonValue(recovered));
        audit.set("drainCycles", obs::JsonValue(drained));
        audit.set("pass", obs::JsonValue(violations.empty()));
        rep.add("audit", std::move(audit));
        rep.add("stats", s.toJson());
        if (!rep.writeIfRequested(opt))
            return 1;
    }
    return violations.empty() ? 0 : 1;
}
