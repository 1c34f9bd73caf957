/**
 * @file
 * spin-lint: static channel-dependency-graph verifier.
 *
 * Builds the extended CDG of a (topology x routing x VC-partition x
 * deadlock-scheme) configuration from the routing function alone and
 * decides deadlock freedom without simulating: acyclicity, the Duato
 * escape condition, bubble flow control, and recovery applicability
 * (SPIN probe budget / Static Bubble reserved layer), emitting concrete
 * witness cycles for every cyclic verdict. `--sweep` checks the whole
 * shipped scheme matrix against the paper's Table 1 classification and
 * each algorithm's declared selfDeadlockFree() contract -- the CI gate.
 *
 * Examples:
 *   spin_lint --topology mesh8x8 --routing favors-min --scheme spin \
 *             --vcs 1 --dot cdg.dot
 *   spin_lint --sweep --json spin_lint.json --dot-dir lint-out
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/CdgAnalyzer.hh"
#include "common/Logging.hh"
#include "exp/ArgParse.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"

namespace
{

using namespace spin;
using analysis::AnalysisReport;
using analysis::CdgAnalyzer;
using analysis::Verdict;

struct Options
{
    std::string topology = "mesh8x8";
    std::string routing = "minimal-adaptive";
    std::string scheme = "none";
    std::uint64_t vcs = 0; // 0 = routing's declared minimum
    std::uint64_t vnets = 1;
    std::uint64_t maxStates = 1ull << 24;
    std::string faultsPath;
    std::string jsonPath;
    std::string dotPath;
    std::string dotDir;
    bool sweep = false;
    bool quiet = false;
};

/** A row is healthy when the declaration matches the verdict and any
 *  configured recovery scheme actually certifies freedom. */
bool
rowOk(const AnalysisReport &rep)
{
    if (!rep.contractOk)
        return false;
    if (rep.scheme != toString(DeadlockScheme::None) &&
        !analysis::verdictDeadlockFree(rep.verdict)) {
        return false;
    }
    return rep.verdict != Verdict::Inconclusive;
}

AnalysisReport
runOne(const Options &o, const std::string &topoName,
       const std::string &routingName, const std::string &schemeName,
       int vcs, std::string *dot)
{
    RoutingKind kind{};
    if (!exp::routingKindFromString(routingName, kind))
        SPIN_FATAL("unknown routing '", routingName, "'");
    NetworkConfig cfg;
    if (!schemeFromString(schemeName, cfg.scheme))
        SPIN_FATAL("unknown scheme '", schemeName, "'");
    cfg.name = "spin-lint";
    cfg.vnets = static_cast<int>(o.vnets);
    cfg.vcsPerVnet = vcs > 0 ? vcs : makeRouting(kind)->minVcsPerVnet();
    if (cfg.scheme == DeadlockScheme::StaticBubble)
        cfg.vcsPerVnet += 1; // the reserved VC rides on top
    std::string err;
    std::shared_ptr<const Topology> topo =
        exp::makeTopologyByName(topoName, err);
    if (!topo)
        SPIN_FATAL(err);
    if (!o.faultsPath.empty()) {
        fault::FaultSchedule fs;
        if (!fault::FaultSchedule::fromFile(o.faultsPath, fs, err))
            SPIN_FATAL(err);
        const std::string verr = fs.validate(*topo);
        if (!verr.empty())
            SPIN_FATAL("fault spec ", o.faultsPath, ": ", verr);
        topo = fault::degradedTopology(*topo, fs.concretize(*topo));
    }
    auto net = buildNetwork(std::move(topo), cfg, kind);
    CdgAnalyzer analyzer(*net);
    AnalysisReport rep = analyzer.analyze(0, o.maxStates);
    if (dot)
        *dot = analyzer.toDot(rep);
    return rep;
}

/** One sweep row: a shipped configuration and its Table 1 verdict. */
struct SweepRow
{
    const char *name;
    const char *topology;
    const char *routing;
    const char *scheme;
    int vcs; //!< 0 = routing's declared minimum
    Verdict expected;
};

/**
 * The shipped scheme matrix (paper Table 1 plus the DOR rows of
 * Table 2's topologies). Small instances: the CDG verdict is scale
 * invariant for these regular topologies, the witnesses just get
 * longer.
 */
const SweepRow kSweep[] = {
    {"DOR_mesh", "mesh8x8", "xy-dor", "none", 0, Verdict::Acyclic},
    {"WestFirst_mesh", "mesh8x8", "west-first", "none", 0,
     Verdict::Acyclic},
    {"EscapeVC_mesh", "mesh8x8", "escape-vc", "none", 0,
     Verdict::EscapeProtected},
    {"MinAdaptive_mesh_none", "mesh8x8", "minimal-adaptive", "none", 0,
     Verdict::Deadlockable},
    {"MinAdaptive_mesh_SPIN", "mesh8x8", "minimal-adaptive", "spin", 0,
     Verdict::RecoverableSpin},
    {"StaticBubble_mesh", "mesh8x8", "minimal-adaptive", "static-bubble",
     0, Verdict::RecoverableStaticBubble},
    {"FAvORS_Min_mesh_SPIN", "mesh8x8", "favors-min", "spin", 0,
     Verdict::RecoverableSpin},
    {"FAvORS_NMin_mesh_SPIN", "mesh8x8", "favors-nmin", "spin", 0,
     Verdict::RecoverableSpin},
    {"DOR_torus_none", "torus4x4", "xy-dor", "none", 0,
     Verdict::Deadlockable},
    {"TorusBubble", "torus4x4", "torus-bubble-dor", "none", 0,
     Verdict::FlowControlProtected},
    {"TorusBubble_8x8", "torus8x8", "torus-bubble-dor", "none", 0,
     Verdict::FlowControlProtected},
    {"DOR_ring", "ring8", "xy-dor", "none", 0, Verdict::Deadlockable},
    {"MinAdaptive_ring_SPIN", "ring8", "minimal-adaptive", "spin", 0,
     Verdict::RecoverableSpin},
    {"UGAL_Dally_dfly", "dragonfly-p2a4h2g9", "ugal-dally", "none", 0,
     Verdict::Acyclic},
    {"UGAL_dfly_SPIN", "dragonfly-p2a4h2g9", "ugal-spin", "spin", 3,
     Verdict::RecoverableSpin},
    {"MinAdaptive_dfly_SPIN", "dragonfly-p2a4h2g9", "minimal-adaptive",
     "spin", 0, Verdict::RecoverableSpin},
    {"FAvORS_NMin_dfly_SPIN", "dragonfly-p2a4h2g9", "favors-nmin", "spin",
     0, Verdict::RecoverableSpin},
};

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
    return static_cast<bool>(out);
}

int
runSweep(const Options &o)
{
    obs::JsonValue rows = obs::JsonValue::array();
    int failures = 0;
    for (const SweepRow &row : kSweep) {
        std::string dot;
        AnalysisReport rep =
            runOne(o, row.topology, row.routing, row.scheme, row.vcs,
                   o.dotDir.empty() ? nullptr : &dot);
        const bool verdictMatch = rep.verdict == row.expected;
        const bool witnessesOk =
            analysis::verdictSelfSufficient(rep.verdict) ||
            (!rep.witnesses.empty() &&
             rep.witnesses.front().verified);
        const bool ok = rowOk(rep) && verdictMatch && witnessesOk;
        if (!ok)
            ++failures;
        if (!ok || !o.quiet) {
            std::printf("%-24s %s %s\n", row.name,
                        ok ? "ok  " : "FAIL", rep.summary().c_str());
            if (!verdictMatch) {
                std::printf("    expected verdict %s\n",
                            analysis::toString(row.expected).c_str());
            }
            if (!witnessesOk)
                std::printf("    missing verified witness cycle\n");
        }
        obs::JsonValue j = rep.toJson();
        j.set("row", row.name);
        j.set("expected", analysis::toString(row.expected));
        j.set("ok", ok);
        rows.push(std::move(j));
        if (!o.dotDir.empty() &&
            (!ok || !analysis::verdictSelfSufficient(rep.verdict))) {
            writeFile(o.dotDir + "/" + row.name + ".dot", dot);
        }
    }
    if (!o.jsonPath.empty()) {
        obs::JsonValue doc = obs::JsonValue::object();
        doc.set("tool", "spin_lint");
        doc.set("mode", "sweep");
        doc.set("failures", failures);
        doc.set("rows", std::move(rows));
        if (!obs::writeJsonFile(o.jsonPath, doc)) {
            std::fprintf(stderr, "cannot write %s\n", o.jsonPath.c_str());
            return 1;
        }
    }
    std::printf("%zu configurations, %d failure%s\n",
                std::size(kSweep), failures, failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}

int
runSingle(const Options &o)
{
    std::string dot;
    AnalysisReport rep =
        runOne(o, o.topology, o.routing, o.scheme, static_cast<int>(o.vcs),
               o.dotPath.empty() ? nullptr : &dot);
    std::printf("%s\n", rep.summary().c_str());
    for (const auto &w : rep.witnesses) {
        std::printf("  witness (m=%d, %s, spin bound %d): ", w.length,
                    w.verified ? "verified" : "UNVERIFIED", w.spinBound);
        for (const StaticChannel &c : w.channels)
            std::printf("%d->%d.v%d ", c.src, c.dst, c.vc);
        std::printf("\n");
    }
    if (!o.dotPath.empty() && !writeFile(o.dotPath, dot)) {
        std::fprintf(stderr, "cannot write %s\n", o.dotPath.c_str());
        return 1;
    }
    if (!o.jsonPath.empty() &&
        !obs::writeJsonFile(o.jsonPath, rep.toJson())) {
        std::fprintf(stderr, "cannot write %s\n", o.jsonPath.c_str());
        return 1;
    }
    return rowOk(rep) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::vector<exp::ArgSpec> specs = {
        exp::argStr("--topology", &o.topology,
                    "mesh<X>x<Y> | torus<X>x<Y> | ring<N> | dragonfly | "
                    "dragonfly-p<P>a<A>h<H>g<G>, as in spin_sweep specs "
                    "(default mesh8x8)",
                    "NAME"),
        exp::argStr("--routing", &o.routing,
                    "xy-dor | west-first | minimal-adaptive | escape-vc | "
                    "torus-bubble-dor | ugal-dally | ugal-spin | favors-min "
                    "| favors-nmin (default minimal-adaptive)",
                    "NAME"),
        exp::argStr("--scheme", &o.scheme,
                    "none | spin | static-bubble (default none)", "NAME"),
        exp::argU64("--vcs", &o.vcs,
                    "VCs per vnet (default: routing's declared min)"),
        exp::argU64("--vnets", &o.vnets,
                    "virtual networks (default 1; vnets never share VCs, "
                    "so vnet 0 decides)"),
        exp::argU64("--max-states", &o.maxStates,
                    "reachability budget (default 2^24)"),
        exp::argStr("--faults", &o.faultsPath,
                    "verify the topology degraded by a spin-faults/v2 "
                    "spec (single config only)"),
        exp::argStr("--json", &o.jsonPath,
                    "write the report (or sweep table) as JSON"),
        exp::argStr("--dot", &o.dotPath,
                    "write the CDG as Graphviz DOT (single config)"),
        exp::argStr("--dot-dir", &o.dotDir,
                    "sweep: write DOT per cyclic/violating row", "DIR"),
        exp::argFlag("--sweep", &o.sweep,
                     "verify the shipped configuration matrix"),
        exp::argFlag("--quiet", &o.quiet, "only print violations"),
    };
    exp::parseCommandLine(
        argc, argv, std::move(specs),
        "[options]\nstatic channel-dependency-graph deadlock verifier\n\n",
        "\nexit status: 0 all contracts hold, 1 violation or "
        "inconclusive,\n             2 usage error\n");
    if (o.sweep && !o.faultsPath.empty()) {
        std::fprintf(stderr, "--faults applies to a single "
                             "configuration, not --sweep\n");
        return 2;
    }
    try {
        return o.sweep ? runSweep(o) : runSingle(o);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "spin_lint: %s\n", e.what());
        return 2;
    }
}
