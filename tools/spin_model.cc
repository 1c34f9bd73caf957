/**
 * @file
 * spin-model: exhaustive explicit-state model checker for the SPIN
 * recovery protocol.
 *
 * Where spin_lint proves deadlock freedom statically from the routing
 * function, spin_model checks the *recovery protocol itself*: it
 * replays small bounded configurations (2-4 routers per dependency
 * loop, see src/verify/Scenarios.cc) through the real
 * SpinFsm/SpinUnit/SpinManager implementation and exhaustively
 * explores SM-schedule interleavings -- probe launches, FAvORS
 * arbitration upsets, move grants and timeouts, counter-probe
 * collisions, kill_moves, fault-induced aborts -- by delaying or
 * dropping special messages at every launch point up to a perturbation
 * budget. Visited states are deduplicated by a canonical digest
 * (rotation-symmetric on rings), every cycle of every run is audited
 * (flit conservation, frozen-VC bookkeeping, Fig. 4a transitions,
 * one-spin-per-loop), and every run must drain within the paper's
 * k = m*p + (m-1) spin bound. Violations come back as minimized,
 * deterministically replayable traces (spin-model-trace/v1). Runs are
 * explored on -j worker threads (default: every CPU the process may
 * use); the printed lines, the report and the traces are identical for
 * any -j (docs/VERIFICATION.md, "Parallel exploration").
 *
 * Examples:
 *   spin_model                                   # verify all scenarios
 *   spin_model --scenario ring4 --budget 2 --json report.json
 *   spin_model --mutate skip-cancel-unfreeze --trace-dir out/
 *   spin_model --replay out/ring4-audit-0.json
 *
 * exit status: 0 everything verified clean (or --replay reproduced its
 *              violation), 1 violation found (or --replay failed to
 *              reproduce), 2 usage error, or a --json report or
 *              --trace-dir trace that cannot be written (after every
 *              other output)
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/ArgParse.hh"
#include "obs/Json.hh"
#include "sim/Parallel.hh"
#include "verify/Explorer.hh"
#include "verify/Scenarios.hh"
#include "verify/Trace.hh"

namespace
{

using namespace spin;
using namespace spin::verify;

struct Options
{
    std::string scenario;
    int budget = 1;
    std::uint64_t maxRuns = 0;
    int jobs = availableCpus();
    std::string mutate = toString(ProtocolMutation::None);
    bool noLiveness = false;
    std::string traceDir;
    std::string jsonPath;
    std::string replayPath;
    bool list = false;
    bool quiet = false;
};

int
listScenarios()
{
    for (const Scenario &sc : scenarios()) {
        std::printf("%-12s %s\n", sc.name.c_str(), sc.description.c_str());
        std::printf("%-12s   loop length %d, %d packets offered%s%s\n", "",
                    sc.loopLen, sc.offered,
                    sc.ringSymmetry ? ", ring-symmetric" : "",
                    sc.faultCycles.empty() ? ""
                                           : ", fault-injection roots");
    }
    return 0;
}

int
runReplay(const std::string &path)
{
    Violation want;
    std::string err;
    if (!traceFromFile(path, want, err)) {
        std::fprintf(stderr, "spin_model: cannot load %s: %s\n",
                     path.c_str(), err.c_str());
        return 2;
    }
    const Scenario *sc = findScenario(want.run.scenario);
    if (!sc) {
        std::fprintf(stderr, "spin_model: trace names unknown scenario %s\n",
                     want.run.scenario.c_str());
        return 2;
    }
    const ReplayResult got = replay(*sc, want.run);
    if (!got.violated) {
        std::printf("replay: NO violation (run %s at cycle %llu)\n",
                    got.quiescent ? "quiesced" : "ended",
                    static_cast<unsigned long long>(got.endCycle));
        return 1;
    }
    const bool match = got.violation.kind == want.kind;
    std::printf("replay: %s violation at cycle %llu (trace: %s at %llu)\n",
                got.violation.kind.c_str(),
                static_cast<unsigned long long>(got.violation.cycle),
                want.kind.c_str(),
                static_cast<unsigned long long>(want.cycle));
    std::printf("  %s\n", got.violation.message.c_str());
    return match ? 0 : 1;
}

obs::JsonValue
resultToJson(const Scenario &sc, const ExplorerOptions &opt,
             const ExploreResult &res)
{
    obs::JsonValue o = obs::JsonValue::object();
    o.set("scenario", sc.name);
    o.set("mutation", toString(opt.mutation));
    o.set("budget", static_cast<std::uint64_t>(opt.budget));
    o.set("runs", res.runs);
    o.set("statesVisited", res.statesVisited);
    o.set("prunedRuns", res.prunedRuns);
    o.set("choicePoints", res.choicePoints);
    o.set("cyclesSimulated", res.cyclesSimulated);
    o.set("exhausted", res.exhausted);
    obs::JsonValue viols = obs::JsonValue::array();
    for (const Violation &v : res.violations)
        viols.push(traceToJson(v));
    o.set("violations", std::move(viols));
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::vector<exp::ArgSpec> specs = {
        exp::argStr("--scenario", &o.scenario,
                    "verify one scenario (default: all; see --list)",
                    "NAME"),
        exp::argInt("--budget", &o.budget,
                    "max SM-schedule perturbations per run (default 1)"),
        exp::argU64("--max-runs", &o.maxRuns,
                    "cap runs per scenario, 0 = run frontier dry "
                    "(default 0)"),
        exp::argStr("--mutate", &o.mutate,
                    nameList<ProtocolMutation>() +
                        " (inject a protocol defect; the checker must "
                        "catch it -- CI runs this as a self-test)",
                    "NAME"),
        exp::argInt("-j, --jobs", &o.jobs,
                    "worker threads exploring runs (1 to " +
                        std::to_string(kMaxThreads) +
                        ", default: the CPUs this process may use); "
                        "every output is identical for any value",
                    1, kMaxThreads),
        exp::argFlag("--no-liveness", &o.noLiveness,
                     "disable the bounded-liveness horizon check"),
        exp::argStr("--trace-dir", &o.traceDir,
                    "write a minimized spin-model-trace/v1 file per "
                    "violation (DIR must exist; a trace that cannot be "
                    "written exits 2)",
                    "DIR"),
        exp::argStr("--json", &o.jsonPath,
                    "machine-readable report (spin-model-report/v1)"),
        exp::argStr("--replay", &o.replayPath,
                    "re-execute a trace; exit 0 iff its violation "
                    "reproduces"),
        exp::argFlag("--list", &o.list, "list scenarios and exit"),
        exp::argFlag("--quiet", &o.quiet,
                     "only print violations and the final verdict"),
    };
    const exp::Usage usage = exp::parseCommandLine(
        argc, argv, std::move(specs),
        "[options]\n"
        "exhaustive model checker for the SPIN recovery protocol\n\n",
        "\nexit status: 0 verified clean / replay reproduced, 1 violation "
        "/\n             replay mismatch, 2 usage error or an unwritable "
        "--json\n             report or --trace-dir trace\n");
    if (o.list)
        return listScenarios();
    if (!o.replayPath.empty())
        return runReplay(o.replayPath);

    ExplorerOptions eopt;
    eopt.budget = o.budget;
    eopt.maxRuns = o.maxRuns;
    eopt.checkLiveness = !o.noLiveness;
    eopt.jobs = o.jobs;
    if (!fromString(o.mutate, eopt.mutation))
        usage.fail("unknown mutation \"" + o.mutate + "\"");

    std::vector<const Scenario *> targets;
    if (o.scenario.empty()) {
        for (const Scenario &sc : scenarios())
            targets.push_back(&sc);
    } else {
        const Scenario *sc = findScenario(o.scenario);
        if (!sc)
            usage.fail("unknown scenario \"" + o.scenario + "\"");
        targets.push_back(sc);
    }

    obs::JsonValue report = obs::JsonValue::object();
    report.set("schema", "spin-model-report/v1");
    obs::JsonValue rows = obs::JsonValue::array();

    std::uint64_t totalViolations = 0;
    bool traceUnwritten = false;
    for (const Scenario *sc : targets) {
        const ExploreResult res = explore(*sc, eopt);
        totalViolations += res.violations.size();
        if (!o.quiet) {
            std::printf("%-12s %6llu runs, %7llu states, %6llu pruned, "
                        "%6llu choice points, %9llu cycles%s -> %s\n",
                        sc->name.c_str(),
                        static_cast<unsigned long long>(res.runs),
                        static_cast<unsigned long long>(res.statesVisited),
                        static_cast<unsigned long long>(res.prunedRuns),
                        static_cast<unsigned long long>(res.choicePoints),
                        static_cast<unsigned long long>(res.cyclesSimulated),
                        res.exhausted ? "" : " (budget-capped)",
                        res.violations.empty() ? "clean" : "VIOLATION");
        }
        int idx = 0;
        for (const Violation &raw : res.violations) {
            const Violation v = minimize(*sc, raw);
            std::printf("  [%s] cycle %llu: %s\n", v.kind.c_str(),
                        static_cast<unsigned long long>(v.cycle),
                        v.message.c_str());
            std::printf("    reproduce: %zu perturbation(s)%s\n",
                        v.run.choices.size(),
                        v.run.faultCycle == kNeverCycle
                            ? ""
                            : " + router fault");
            if (!o.traceDir.empty()) {
                const std::string path = o.traceDir + "/" + sc->name + "-" +
                                         v.kind + "-" +
                                         std::to_string(idx) + ".json";
                if (traceToFile(v, path)) {
                    std::printf("    trace: %s\n", path.c_str());
                } else {
                    std::fprintf(stderr,
                                 "spin_model: cannot write %s\n",
                                 path.c_str());
                    traceUnwritten = true;
                }
            }
            ++idx;
        }
        rows.push(resultToJson(*sc, eopt, res));
    }
    report.set("scenarios", std::move(rows));
    report.set("clean", totalViolations == 0);

    if (!o.jsonPath.empty()) {
        if (!obs::writeJsonFile(o.jsonPath, report)) {
            std::fprintf(stderr, "spin_model: cannot write %s\n",
                         o.jsonPath.c_str());
            return 2;
        }
        if (!o.quiet)
            std::printf("report: %s\n", o.jsonPath.c_str());
    }

    if (totalViolations != 0) {
        std::printf("spin_model: %llu violation(s)\n",
                    static_cast<unsigned long long>(totalViolations));
        return traceUnwritten ? 2 : 1;
    }
    if (!o.quiet)
        std::printf("spin_model: all scenarios verified clean\n");
    return 0;
}
