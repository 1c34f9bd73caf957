#include "analysis/CdgAnalyzer.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "network/Network.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin::analysis
{

std::string
toString(Verdict v)
{
    switch (v) {
      case Verdict::Acyclic:                 return "acyclic";
      case Verdict::EscapeProtected:         return "escape-protected";
      case Verdict::FlowControlProtected:    return "flow-control-protected";
      case Verdict::RecoverableSpin:         return "recoverable-spin";
      case Verdict::RecoverableStaticBubble: return "recoverable-static-bubble";
      case Verdict::Deadlockable:            return "deadlockable";
      case Verdict::Inconclusive:            return "inconclusive";
    }
    return "?";
}

std::string
theoryClass(Verdict v)
{
    switch (v) {
      case Verdict::Acyclic:                 return "routing restriction";
      case Verdict::EscapeProtected:         return "escape VCs (Duato)";
      case Verdict::FlowControlProtected:    return "flow control (bubble)";
      case Verdict::RecoverableSpin:         return "recovery (SPIN)";
      case Verdict::RecoverableStaticBubble: return "recovery (static bubble)";
      case Verdict::Deadlockable:            return "none (deadlock-prone)";
      case Verdict::Inconclusive:            return "unknown";
    }
    return "?";
}

bool
verdictDeadlockFree(Verdict v)
{
    return v != Verdict::Deadlockable && v != Verdict::Inconclusive;
}

bool
verdictSelfSufficient(Verdict v)
{
    return v == Verdict::Acyclic || v == Verdict::EscapeProtected ||
           v == Verdict::FlowControlProtected;
}

obs::JsonValue
WitnessCycle::toJson() const
{
    obs::JsonValue j = obs::JsonValue::object();
    j.set("length", length);
    j.set("verified", verified);
    j.set("spin_recoverable", spinRecoverable);
    j.set("spin_bound", spinBound);
    obs::JsonValue chans = obs::JsonValue::array();
    for (const StaticChannel &c : channels) {
        obs::JsonValue jc = obs::JsonValue::object();
        jc.set("src", c.src);
        jc.set("src_port", c.srcPort);
        jc.set("dst", c.dst);
        jc.set("dst_port", c.dstPort);
        jc.set("vc", c.vc);
        chans.push(std::move(jc));
    }
    j.set("channels", std::move(chans));
    return j;
}

obs::JsonValue
AnalysisReport::toJson() const
{
    obs::JsonValue j = obs::JsonValue::object();
    j.set("topology", topology);
    j.set("routing", routing);
    j.set("scheme", scheme);
    j.set("vnet", vnet);
    j.set("vcs_per_vnet", vcsPerVnet);
    j.set("verdict", analysis::toString(verdict));
    j.set("theory_class", theoryClass(verdict));
    j.set("deadlock_free", verdictDeadlockFree(verdict));
    j.set("declared_self_deadlock_free", declaredSelfFree);
    j.set("contract_ok", contractOk);
    if (!contractNote.empty())
        j.set("contract_note", contractNote);
    j.set("channels_used", channelsUsed);
    j.set("dependencies", dependencies);
    j.set("states_visited", statesVisited);
    j.set("cyclic_sccs", cyclicSccs);
    j.set("largest_scc", largestScc);
    if (escapeDeclared) {
        obs::JsonValue e = obs::JsonValue::object();
        e.set("acyclic", escapeAcyclic);
        e.set("always_reachable", escapeAlwaysReachable);
        e.set("closed", escapeClosed);
        j.set("escape", std::move(e));
    }
    if (probeBudget > 0)
        j.set("probe_budget", probeBudget);
    obs::JsonValue w = obs::JsonValue::array();
    for (const WitnessCycle &c : witnesses)
        w.push(c.toJson());
    j.set("witnesses", std::move(w));
    return j;
}

std::string
AnalysisReport::summary() const
{
    std::ostringstream os;
    os << topology << " / " << routing << " / " << scheme << " / "
       << vcsPerVnet << " VC: " << analysis::toString(verdict) << " ["
       << theoryClass(verdict) << "], " << channelsUsed << " channels, "
       << dependencies << " deps, " << cyclicSccs << " cyclic SCCs"
       << (witnesses.empty()
               ? ""
               : ", shortest witness " +
                     std::to_string(witnesses.front().length))
       << "; contract " << (contractOk ? "ok" : "VIOLATED");
    return os.str();
}

CdgAnalyzer::CdgAnalyzer(const Network &net) : net_(net), builder_(net)
{
}

bool
CdgAnalyzer::verifyWitness(const std::vector<int> &nodes) const
{
    // Independent machine check: for every edge of the cycle, re-run
    // the routing function from the state that generated the edge and
    // confirm it still demands the next channel while holding this one.
    const RoutingAlgorithm &algo = net_.routing();
    std::vector<RouteHop> hops;
    const std::uint64_t n = static_cast<std::uint64_t>(cdg_.numNodes());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const int from = nodes[i];
        const int to = nodes[(i + 1) % nodes.size()];
        const auto it = cdg_.edgeWitness.find(
            static_cast<std::uint64_t>(from) * n +
            static_cast<std::uint64_t>(to));
        if (it == cdg_.edgeWitness.end())
            return false;
        const RouteState &s = it->second;
        // The holder of `from` must sit at that channel's downstream
        // router.
        if (net_.topo().links()[cdg_.linkOf(from)].dst != s.router)
            return false;
        algo.enumerateHops(s, hops);
        bool reproduced = false;
        for (const RouteHop &h : hops) {
            const int link = net_.linkIndexOf(s.router, h.outport);
            if (link >= 0 && cdg_.nodeOf(link, h.vc) == to) {
                reproduced = true;
                break;
            }
        }
        if (!reproduced)
            return false;
    }
    return true;
}

bool
CdgAnalyzer::staticBubbleLayerAcyclic() const
{
    // Recovery packets drain on the reserved VC along the ports the
    // routing layer gives them (headPorts() on the recovery network);
    // the layer is safe iff that route function is cycle-free on this
    // topology's link graph.
    const Topology &topo = net_.topo();
    if (!topo.mesh)
        return false;
    const RoutingAlgorithm &algo = net_.routing();
    Packet pkt;
    pkt.onEscape = true;
    std::vector<PortId> ports;
    const int numLinks = static_cast<int>(topo.links().size());
    Digraph layer(numLinks);
    std::set<std::pair<int, int>> seen;
    for (RouterId r = 0; r < topo.numRouters(); ++r) {
        for (RouterId d = 0; d < topo.numRouters(); ++d) {
            if (r == d)
                continue;
            pkt.destRouter = d;
            int prev = -1;
            RouterId cur = r;
            while (cur != d) {
                algo.headPorts(pkt, net_.router(cur), d, ports);
                const int link = net_.linkIndexOf(cur, ports[0]);
                if (link < 0)
                    return false; // route walks off the fabric
                if (prev >= 0 && seen.emplace(prev, link).second)
                    layer.addEdge(prev, link);
                prev = link;
                cur = topo.links()[link].dst;
            }
        }
    }
    return layer.acyclic();
}

AnalysisReport
CdgAnalyzer::analyze(VnetId vnet, std::uint64_t max_states)
{
    const RoutingAlgorithm &algo = net_.routing();
    const NetworkConfig &cfg = net_.config();

    cdg_ = builder_.build(vnet, max_states);

    AnalysisReport rep;
    rep.topology = net_.topo().name;
    rep.routing = algo.name();
    rep.scheme = spin::toString(cfg.scheme);
    rep.vnet = vnet;
    rep.vcsPerVnet = cfg.vcsPerVnet;
    rep.declaredSelfFree = algo.selfDeadlockFree();
    rep.statesVisited = cdg_.statesVisited;
    rep.dependencies = cdg_.graph.numEdges();
    rep.channelsUsed = static_cast<std::uint64_t>(
        std::count(cdg_.nodeUsed.begin(), cdg_.nodeUsed.end(), 1));
    rep.escapeDeclared = cdg_.escapeDeclared;

    if (cdg_.truncated) {
        rep.verdict = Verdict::Inconclusive;
        rep.contractOk = false;
        rep.contractNote = "state enumeration truncated; raise the "
                           "state budget";
        return rep;
    }

    const auto sccs = cdg_.graph.nontrivialSccs();
    rep.cyclicSccs = static_cast<int>(sccs.size());
    for (const auto &scc : sccs)
        rep.largestScc = std::max(rep.largestScc,
                                  static_cast<int>(scc.size()));

    // Escape-layer condition (evaluated whenever a layer is declared,
    // reported even when a stronger verdict wins).
    if (cdg_.escapeDeclared) {
        Digraph sub(cdg_.numNodes());
        for (int a = 0; a < cdg_.numNodes(); ++a) {
            if (!cdg_.nodeEscape[a])
                continue;
            for (const int b : cdg_.graph.succs(a)) {
                if (cdg_.nodeEscape[b])
                    sub.addEdge(a, b);
            }
        }
        rep.escapeAcyclic = sub.acyclic();
        rep.escapeAlwaysReachable = cdg_.escapeAlwaysReachable;
        rep.escapeClosed = cdg_.escapeClosed;
    }

    if (cfg.scheme == DeadlockScheme::Spin)
        rep.probeBudget = probeHopCap(net_);

    // Witness cycles: the shortest cycle of every cyclic SCC, then
    // Johnson-enumerated ones, deduplicated up to rotation. Extracted
    // before the verdict so SPIN applicability can judge them.
    if (!sccs.empty()) {
        std::vector<std::vector<int>> cycles;
        for (const auto &scc : sccs) {
            if (cycles.size() >= kMaxWitnesses)
                break;
            auto c = cdg_.graph.shortestCycleIn(scc);
            if (!c.empty())
                cycles.push_back(std::move(c));
        }
        for (auto &c : cdg_.graph.elementaryCycles(kMaxWitnesses,
                                                   kMaxWitnessLen)) {
            if (cycles.size() >= kMaxWitnesses)
                break;
            cycles.push_back(std::move(c));
        }
        std::set<std::vector<int>> seen;
        const int p = algo.nonMinimal() ? 1 : 0;
        for (auto &nodes : cycles) {
            // Canonical rotation: start at the smallest node id.
            const auto minIt =
                std::min_element(nodes.begin(), nodes.end());
            std::rotate(nodes.begin(), minIt, nodes.end());
            if (!seen.insert(nodes).second)
                continue;
            WitnessCycle w;
            w.length = static_cast<int>(nodes.size());
            w.verified = verifyWitness(nodes);
            w.spinBound = w.length * p + (w.length - 1);
            w.spinRecoverable = cfg.scheme == DeadlockScheme::Spin &&
                                w.length <= rep.probeBudget;
            for (const int node : nodes)
                w.channels.push_back(builder_.channelOf(cdg_, node));
            w.nodes = std::move(nodes);
            rep.witnesses.push_back(std::move(w));
        }
        std::stable_sort(rep.witnesses.begin(), rep.witnesses.end(),
                         [](const WitnessCycle &a, const WitnessCycle &b) {
                             return a.length < b.length;
                         });
    }

    // Verdict cascade, strongest-to-weakest guarantee.
    if (sccs.empty()) {
        rep.verdict = Verdict::Acyclic;
    } else if (cdg_.escapeDeclared && rep.escapeAcyclic &&
               rep.escapeAlwaysReachable && rep.escapeClosed) {
        rep.verdict = Verdict::EscapeProtected;
    } else {
        std::vector<StaticChannel> channels;
        bool allProtected = true;
        for (const auto &scc : sccs) {
            channels.clear();
            for (const int node : scc)
                channels.push_back(builder_.channelOf(cdg_, node));
            if (!algo.sccProtectedByFlowControl(channels)) {
                allProtected = false;
                break;
            }
        }
        // SPIN applicability (paper Sec. III): every enumerated witness
        // must be a machine-verified spin loop a probe can traverse
        // within its hop budget. SCC size bounds the longest possible
        // elementary cycle, so when it fits the budget too, coverage is
        // exhaustive rather than witness-based (noted below otherwise).
        bool spinCovered = !rep.witnesses.empty();
        for (const WitnessCycle &w : rep.witnesses)
            spinCovered &= w.verified && w.spinRecoverable;
        if (allProtected) {
            rep.verdict = Verdict::FlowControlProtected;
        } else if (cfg.scheme == DeadlockScheme::Spin && spinCovered) {
            rep.verdict = Verdict::RecoverableSpin;
        } else if (cfg.scheme == DeadlockScheme::StaticBubble) {
            // Normal traffic must never touch the reserved VC, and the
            // reserved west-first drain layer must be acyclic.
            bool reservedClean = true;
            const VcId reserved = reservedVc(cfg, vnet);
            for (int node = 0; node < cdg_.numNodes(); ++node) {
                if (cdg_.nodeUsed[node] && cdg_.vcOf(node) == reserved) {
                    reservedClean = false;
                    break;
                }
            }
            rep.verdict = reservedClean && staticBubbleLayerAcyclic()
                              ? Verdict::RecoverableStaticBubble
                              : Verdict::Deadlockable;
        } else {
            rep.verdict = Verdict::Deadlockable;
        }
    }

    // Contract cross-check against the routing algorithm's own claim.
    const bool actuallySelf = verdictSelfSufficient(rep.verdict);
    rep.contractOk = rep.declaredSelfFree == actuallySelf;
    if (rep.contractOk && rep.verdict == Verdict::RecoverableSpin &&
        rep.largestScc > rep.probeBudget) {
        rep.contractNote = "witness-based certification: the largest SCC (" +
                           std::to_string(rep.largestScc) +
                           " channels) exceeds the probe budget (" +
                           std::to_string(rep.probeBudget) +
                           "), so coverage rests on the enumerated "
                           "witness cycles";
    }
    if (!rep.contractOk) {
        rep.contractNote =
            rep.declaredSelfFree
                ? "routing declares selfDeadlockFree() but the CDG "
                  "admits an unprotected cycle"
                : "routing declares it needs recovery but the CDG "
                  "proves it deadlock-free on its own";
    }
    return rep;
}

std::string
CdgAnalyzer::toDot(const AnalysisReport &rep) const
{
    const Topology &topo = net_.topo();
    std::vector<char> inScc(cdg_.numNodes(), 0);
    for (const auto &scc : cdg_.graph.nontrivialSccs()) {
        for (const int v : scc)
            inScc[v] = 1;
    }
    std::set<std::pair<int, int>> witnessEdges;
    for (const WitnessCycle &w : rep.witnesses) {
        for (std::size_t i = 0; i < w.nodes.size(); ++i) {
            witnessEdges.emplace(w.nodes[i],
                                 w.nodes[(i + 1) % w.nodes.size()]);
        }
    }

    std::ostringstream os;
    os << "digraph cdg {\n"
       << "  label=\"" << rep.topology << " / " << rep.routing << " / "
       << rep.scheme << " -> " << analysis::toString(rep.verdict)
       << "\";\n"
       << "  node [fontsize=9];\n";
    for (int n = 0; n < cdg_.numNodes(); ++n) {
        if (!cdg_.nodeUsed[n])
            continue;
        const LinkSpec &l = topo.links()[cdg_.linkOf(n)];
        os << "  n" << n << " [label=\"" << l.src << "->" << l.dst
           << " p" << l.srcPort << " v" << cdg_.vcOf(n) << "\"";
        if (inScc[n])
            os << ", style=filled, fillcolor=\"#f6d0d0\"";
        if (cdg_.nodeEscape[n])
            os << ", shape=box, peripheries=2";
        os << "];\n";
    }
    for (int a = 0; a < cdg_.numNodes(); ++a) {
        for (const int b : cdg_.graph.succs(a)) {
            os << "  n" << a << " -> n" << b;
            if (witnessEdges.count({a, b}))
                os << " [color=red, penwidth=2.0]";
            os << ";\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace spin::analysis
