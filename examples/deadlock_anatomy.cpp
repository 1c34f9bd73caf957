/**
 * @file
 * Anatomy of a SPIN recovery: the paper's Fig. 2 / Fig. 4 walkthrough
 * as a runnable program. Constructs a guaranteed deadlock on a ring
 * (every node sends one packet two hops clockwise through a single VC),
 * then narrates each phase as it happens: detection (t_DD expiry),
 * probe traversal, loop latch, move, the synchronized spin, the
 * probe_move re-check and the kill_move epilogue. --help lists the
 * telemetry flags (trace, wait-for loop DOT, telemetry dump).
 */

#include <cstdio>
#include <string>

#include "core/SpinManager.hh"
#include "core/SpinUnit.hh"
#include "deadlock/OracleDetector.hh"
#include "exp/ArgParse.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Forensics.hh"
#include "obs/Tracer.hh"
#include "topology/Ring.hh"

using namespace spin;

namespace
{

/** Clockwise-only ring routing (also used by the test suite). */
class Clockwise : public RoutingAlgorithm
{
  public:
    std::string name() const override { return "cw-ring"; }
    void
    candidates(const Packet &, const Router &, RouterId,
               std::vector<PortId> &out) const override
    {
        out.assign(1, RingInfo::kCw);
    }
};

std::string
stateLine(SpinManager &mgr, int n)
{
    std::string s;
    for (RouterId r = 0; r < n; ++r) {
        const SpinState st = mgr.unit(r).paperState();
        const char *tag = "?";
        switch (st) {
          case SpinState::Off:             tag = "--"; break;
          case SpinState::DetectDeadlock:  tag = "DD"; break;
          case SpinState::Move:            tag = "MV"; break;
          case SpinState::Frozen:          tag = "FZ"; break;
          case SpinState::ForwardProgress: tag = "FP"; break;
          case SpinState::ProbeMove:       tag = "PM"; break;
          case SpinState::KillMove:        tag = "KM"; break;
        }
        s += "R" + std::to_string(r) + ":" + tag + " ";
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr int kN = 6;

    std::string trace_path, jsonl_path, dot_path, json_path;
    exp::parseCommandLine(
        argc, argv,
        {
            exp::argStr("--trace", &trace_path,
                        "Chrome trace (chrome://tracing, ui.perfetto.dev)"),
            exp::argStr("--jsonl", &jsonl_path,
                        "the same events as newline-delimited JSON (when "
                        "--trace is not given)"),
            exp::argStr("--dot", &dot_path,
                        "Graphviz DOT of the captured wait-for loop"),
            exp::argStr("--json", &json_path,
                        "full telemetry dump (config, stats, forensics)"),
        });

    auto topo = std::make_shared<Topology>(makeRing(kN));
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1; // one VC: the deadlock is unavoidable
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    cfg.tDd = 32;
    Network net(topo, cfg, std::make_unique<Clockwise>());
    SpinManager &mgr = *net.spinManager();
    OracleDetector oracle(net);

    net.enableForensics();
    if (!trace_path.empty()) {
        if (auto sink = obs::ChromeTraceSink::open(trace_path))
            net.setTracer(std::make_unique<obs::Tracer>(std::move(sink)));
        else
            std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
    } else if (!jsonl_path.empty()) {
        if (auto sink = obs::JsonlSink::open(jsonl_path))
            net.setTracer(std::make_unique<obs::Tracer>(std::move(sink)));
        else
            std::fprintf(stderr, "cannot open %s\n", jsonl_path.c_str());
    }

    std::printf("=== Deadlock anatomy on a %d-router ring ===\n\n", kN);
    std::printf("Every node sends one 5-flit packet two hops clockwise "
                "through one VC;\nonce every clockwise buffer holds a "
                "packet wanting the next one, nothing\ncan move -- the "
                "textbook cyclic buffer dependency (paper Fig. 2).\n\n");

    for (NodeId i = 0; i < kN; ++i)
        net.offerPacket(net.makePacket(i, (i + 2) % kN, 0, 5));

    Stats last;
    bool reported_deadlock = false;
    while (net.packetsInFlight() > 0 && net.now() < 2000) {
        net.step();
        const Stats &st = net.stats();
        const Cycle t = net.now();

        if (!reported_deadlock && oracle.detect().deadlocked) {
            std::printf("[%4llu] oracle: cyclic dependency in place "
                        "(%zu blocked buffers) -- the network is "
                        "deadlocked\n",
                        static_cast<unsigned long long>(t),
                        oracle.detect().members.size());
            reported_deadlock = true;
        }
        if (st.probesSent != last.probesSent)
            std::printf("[%4llu] PHASE I   probe sent (t_DD=%llu "
                        "expired on a blocked VC)      %s\n",
                        static_cast<unsigned long long>(t),
                        static_cast<unsigned long long>(cfg.tDd),
                        stateLine(mgr, kN).c_str());
        if (st.probesReturned != last.probesReturned) {
            for (RouterId r = 0; r < kN; ++r) {
                const LoopBuffer &lb = mgr.unit(r).loopBuffer();
                if (lb.valid()) {
                    std::printf("[%4llu] PHASE I   probe returned to R%d:"
                                " loop latched, %d hops, %llu cycles\n",
                                static_cast<unsigned long long>(t), r,
                                lb.loopHops(),
                                static_cast<unsigned long long>(
                                    lb.loopLatency()));
                }
            }
        }
        if (st.movesSent != last.movesSent)
            std::printf("[%4llu] PHASE II  move sent: spin committed "
                        "for cycle now + 2*loop\n",
                        static_cast<unsigned long long>(t));
        if (st.movesReturned != last.movesReturned)
            std::printf("[%4llu] PHASE II  move returned: every router "
                        "frozen                %s\n",
                        static_cast<unsigned long long>(t),
                        stateLine(mgr, kN).c_str());
        if (st.spins != last.spins)
            std::printf("[%4llu] PHASE III SPIN! all %llu packets move "
                        "one hop simultaneously\n",
                        static_cast<unsigned long long>(t),
                        static_cast<unsigned long long>(
                            st.packetsRotated - last.packetsRotated));
        if (st.probeMovesSent != last.probeMovesSent)
            std::printf("[%4llu] re-check  probe_move launched along "
                        "the latched loop\n",
                        static_cast<unsigned long long>(t));
        if (st.killMovesSent != last.killMovesSent)
            std::printf("[%4llu] epilogue  kill_move: dependency gone, "
                        "loop released\n",
                        static_cast<unsigned long long>(t));
        if (st.packetsEjected != last.packetsEjected)
            std::printf("[%4llu] delivery  %llu/%d packets ejected\n",
                        static_cast<unsigned long long>(t),
                        static_cast<unsigned long long>(
                            st.packetsEjected),
                        kN);
        last = st;
    }

    std::printf("\nDone at cycle %llu: %llu spins, %llu probes (%llu "
                "returned), all %d packets delivered.\n",
                static_cast<unsigned long long>(net.now()),
                static_cast<unsigned long long>(net.stats().spins),
                static_cast<unsigned long long>(net.stats().probesSent),
                static_cast<unsigned long long>(
                    net.stats().probesReturned),
                kN);

    const obs::Forensics &forensics = *net.forensics();
    if (!forensics.records().empty()) {
        const obs::LoopSnapshot &snap = forensics.records().front();
        std::printf("\nForensic snapshot (cycle %llu, via %s): loop of "
                    "%zu routers:",
                    static_cast<unsigned long long>(snap.cycle),
                    snap.origin.c_str(), snap.routers.size());
        for (const RouterId r : snap.routers)
            std::printf(" R%d", r);
        std::printf("\n");
        if (!dot_path.empty()) {
            if (forensics.writeDot(dot_path, 0))
                std::printf("wrote %s (render: dot -Tsvg %s)\n",
                            dot_path.c_str(), dot_path.c_str());
            else
                std::fprintf(stderr, "cannot write %s\n",
                             dot_path.c_str());
        }
    }
    if (!json_path.empty()) {
        if (net.dumpTelemetry(json_path))
            std::printf("wrote %s\n", json_path.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
    if (obs::Tracer *t = net.trace()) {
        t->flush();
        std::printf("trace: %llu events recorded\n",
                    static_cast<unsigned long long>(t->recorded()));
    }
    return net.packetsInFlight() == 0 ? 0 : 1;
}
