/**
 * @file
 * spin_sweep -- parallel experiment-campaign runner.
 *
 * Runs a declarative sweep spec (built-in figure specs or a JSON file;
 * grammar in docs/SWEEP.md) across a worker pool, one independent
 * Network per cell, and writes the aggregated results JSON. This is the
 * front-end for the paper's campaign figures (6, 7, 8b, 9): it prints
 * every spec's latency series, saturation summary, link-utilization
 * breakdown and spin counts. The aggregate is bit-identical for any -j;
 * wall-clock performance goes to stdout only. --bench-json writes the
 * per-cell digest CI gates against (bench/BENCH_sweep.json), plus the
 * phase profile under --profile.
 *
 *   spin_sweep --spec fig07 -j4 --out sweep-out/fig07
 *   spin_sweep --spec ci-smoke -j2 --json results.json --resume
 *   spin_sweep --list
 */

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/ArgParse.hh"
#include "exp/Campaign.hh"
#include "exp/Report.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultSchedule.hh"

using namespace spin;
using namespace spin::exp;

namespace
{

void
listBuiltins()
{
    std::printf("built-in specs:\n");
    for (const std::string &name : builtinSpecNames()) {
        SweepSpec s;
        builtinSpec(name, s);
        std::printf("  %-16s %s, %zu presets x %zu patterns x %zu "
                    "rates x %zu seeds = %zu cells\n",
                    name.c_str(), s.topology.c_str(), s.presets.size(),
                    s.patterns.size(), s.rates.size(), s.seeds.size(),
                    s.expand().size());
    }
    std::printf("\npresets:\n");
    for (const ConfigPreset &p : presetRegistry()) {
        std::printf("  %-24s %s, %d vnets x %d VCs, %s\n",
                    p.name.c_str(), toString(p.kind), p.cfg.vnets,
                    p.cfg.vcsPerVnet, toString(p.cfg.scheme));
    }
}

/**
 * The BENCH_sweep.json record: a deterministic per-cell digest that
 * tools/check_sweep_baseline.py compares against the committed one.
 */
obs::JsonValue
benchRecord(const SweepSpec &spec, const obs::JsonValue &results)
{
    using obs::JsonValue;
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("spin-sweep-bench/v1"));
    root.set("spec", JsonValue(spec.name));
    JsonValue digest = JsonValue::array();
    const JsonValue &cells = results["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JsonValue &c = cells.at(i);
        JsonValue d = JsonValue::object();
        d.set("cell", c["cell"]);
        d.set("latency", c["latency"]);
        d.set("throughput", c["throughput"]);
        d.set("flitsEjected", c["stats"]["traffic"]["flitsEjected"]);
        d.set("spins", c["stats"]["spin"]["spins"]);
        digest.push(std::move(d));
    }
    root.set("digest", std::move(digest));
    return root;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specArg, outDir, benchJsonPath;
    std::uint64_t warmup = 0, measure = 0;
    bool warmupSet = false, measureSet = false;
    bool noCells = false, printCells = false, list = false;
    CampaignOptions copt;
    RunOptions &run = copt.run;

    std::vector<ArgSpec> specs = {
        argStr("--spec", &specArg, "built-in spec name or JSON spec file",
               "NAME|FILE"),
        argInt("-j, --jobs", &copt.jobs,
               "worker threads, one cell each (1 to " +
                   std::to_string(kMaxThreads) + ", default 1)",
               1, kMaxThreads),
        argStr("--out", &outDir,
               "per-cell result dir (default sweep-out/<spec>); enables "
               "resume",
               "DIR"),
        argFlag("--no-cells", &noCells, "do not write per-cell files"),
        argFlag("--resume", &copt.resume,
                "reuse finished cells from the out dir"),
        argStr("--bench-json", &benchJsonPath,
               "write the digest record (BENCH_sweep.json format), plus "
               "the phase profile under --profile"),
        argU64("--warmup", &warmup, "override the spec's warmup window",
               &warmupSet),
        argU64("--measure", &measure, "override the spec's measure window",
               &measureSet),
        argFlag("--live", &copt.live,
                "single-line progress meter on stderr (auto when stderr "
                "is a TTY)"),
        argFlag("--progress", &copt.progress, "per-cell progress on stderr"),
        argFlag("--cells", &printCells,
                "print the cell expansion and exit"),
        argFlag("--list", &list, "list built-in specs and presets"),
    };
    for (ArgSpec &row :
         run.flags({"--fast", "--threads", "--reliability", "--json",
                    "--metrics", "--metrics-interval", "--profile",
                    "--faults", "--wall-limit", "--audit"})) {
        specs.push_back(std::move(row));
    }
    const Usage usage = parseCommandLine(
        argc, argv, std::move(specs), "--spec NAME|FILE [options]\n",
        "\n--fast quarters the spec's windows; --reliability runs every "
        "cell with the\nprotocol on; --wall-limit and --audit apply per "
        "cell; --json defaults to\n<out>/results.json.\n");
    if (list) {
        listBuiltins();
        return 0;
    }
    if (specArg.empty())
        usage.fail("--spec is required");

    SweepSpec spec;
    std::string err;
    if (!builtinSpec(specArg, spec) &&
        !SweepSpec::fromFile(specArg, spec, err)) {
        std::fprintf(stderr, "spin_sweep: %s\n", err.c_str());
        return 2;
    }
    if (warmupSet)
        spec.warmup = warmup;
    if (measureSet)
        spec.measure = measure;
    if (run.fast) {
        spec.warmup /= 4;
        spec.measure = std::max<Cycle>(spec.measure / 4, 1);
    }
    if (run.reliability)
        spec.reliability = {true};

    const std::vector<Cell> cells = spec.expand();
    if (printCells) {
        std::printf("%zu cells:\n", cells.size());
        for (const Cell &c : cells)
            std::printf("  [%4zu] %-56s netSeed=%llu\n", c.index,
                        c.id.c_str(),
                        static_cast<unsigned long long>(c.netSeed));
        return 0;
    }

    // The meter is for humans: auto-enable on a TTY unless per-cell
    // logging was requested, which it would overwrite.
    copt.live = copt.live || (!copt.progress && isatty(fileno(stderr)) != 0);
    fault::FaultSchedule faults;
    if (!run.faultsPath.empty() &&
        !fault::FaultSchedule::fromFile(run.faultsPath, faults, err)) {
        std::fprintf(stderr, "spin_sweep: %s\n", err.c_str());
        return 2;
    }
    if (!noCells)
        copt.cellDir = outDir.empty() ? "sweep-out/" + spec.name : outDir;
    if (run.jsonPath.empty() && !copt.cellDir.empty())
        run.jsonPath = copt.cellDir + "/results.json";

    std::printf("spin_sweep: spec '%s' (%s), %zu cells, %d jobs, "
                "%d threads/cell%s\n\n",
                spec.name.c_str(), spec.topology.c_str(), cells.size(),
                copt.jobs, run.threads, copt.resume ? ", resume" : "");

    Campaign campaign(spec, copt, std::move(faults));
    obs::JsonValue results;
    try {
        results = campaign.run();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "spin_sweep: %s\n", e.what());
        return 1;
    }
    printSeries(results);
    printSaturationSummary(results);
    printLinkUtilization(results);
    printSpinCounts(results);

    const CampaignPerf &perf = campaign.perf();
    std::printf("== campaign: %zu cells (%zu simulated, %zu cached) in "
                "%.2fs -> %.2f cells/s, %.0f cycles/s ==\n",
                perf.cells, perf.cellsSimulated, perf.cellsCached,
                perf.wallSeconds, perf.cellsPerSec(),
                perf.cyclesPerSec());
    if (run.profile)
        printPhaseProfile(campaign.profile().toJson());

    bool ok = true;
    if (!run.metricsPath.empty())
        std::printf("wrote %s\n", run.metricsPath.c_str());
    if (!run.jsonPath.empty())
        ok = writeOutput(run.jsonPath, results);
    if (!benchJsonPath.empty()) {
        obs::JsonValue rec = benchRecord(spec, results);
        // Wall-clock only: the baseline checker never reads it, and
        // tools/check_metrics_overhead.py gates its telemetry share.
        if (run.profile)
            rec.set("profile", campaign.profile().toJson());
        ok = writeOutput(benchJsonPath, rec) && ok;
    }
    return ok ? 0 : 1;
}
