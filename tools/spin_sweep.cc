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
 * wall-clock performance is reported separately (stdout and, with
 * --bench-json, as the BENCH_sweep.json baseline record CI gates
 * against).
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
                    p.name.c_str(), toString(p.kind).c_str(), p.cfg.vnets,
                    p.cfg.vcsPerVnet, toString(p.cfg.scheme).c_str());
    }
}

/**
 * The BENCH_sweep.json record: a deterministic per-cell digest (the
 * tolerance gate) plus the measured throughput of this run (the perf
 * trajectory). tools/check_sweep_baseline.py compares two of these.
 */
obs::JsonValue
benchRecord(const SweepSpec &spec, const obs::JsonValue &results,
            const CampaignPerf &perf, int jobs, int threads)
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
    JsonValue p = perf.toJson();
    p.set("jobs", JsonValue(jobs));
    p.set("threads", JsonValue(threads));
    root.set("perf", std::move(p));
    return root;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specArg, outDir, jsonPath, benchJsonPath, faultsPath;
    std::string metricsPath;
    std::uint64_t jobs = 1, threads = 1, warmup = 0, measure = 0;
    std::uint64_t metricsInterval = 256, auditInterval = 0;
    bool warmupSet = false, measureSet = false;
    bool fast = false, resume = false, progress = false, live = false;
    bool profile = false;
    bool noCells = false, printCells = false, list = false, help = false;
    bool reliability = false;
    std::uint64_t wallLimit = 0;

    const std::vector<ArgSpec> specs = {
        argStr("--spec", &specArg, "built-in spec name or JSON spec file",
               "NAME|FILE"),
        argU64("-j, --jobs", &jobs,
               "worker threads, one cell each (default 1)"),
        argU64("-t, --threads", &threads,
               "threads inside each cell's simulation (default 1; results "
               "bit-identical for any value, docs/SCALING.md)"),
        argStr("--out", &outDir,
               "per-cell result dir (default sweep-out/<spec>); enables "
               "resume",
               "DIR"),
        argFlag("--no-cells", &noCells, "do not write per-cell files"),
        argFlag("--resume", &resume, "reuse finished cells from the out dir"),
        argStr("--json", &jsonPath,
               "aggregated results JSON (default <out>/results.json)"),
        argStr("--bench-json", &benchJsonPath,
               "write the perf/baseline record (BENCH_sweep.json format)"),
        argU64("--warmup", &warmup, "override the spec's warmup window",
               &warmupSet),
        argU64("--measure", &measure, "override the spec's measure window",
               &measureSet),
        argFlag("--fast", &fast, "quarter-scale warmup/measure"),
        argStr("--faults", &faultsPath,
               "inject a spin-faults/v2 schedule into every cell "
               "(docs/FAULTS.md)"),
        argStr("--metrics", &metricsPath,
               "combined spin-metrics/v2 JSONL of every simulated cell "
               "(docs/OBSERVABILITY.md)"),
        argU64("--metrics-interval", &metricsInterval,
               "metrics window in cycles (default 256)"),
        argU64("--audit", &auditInterval,
               "run the invariant auditor every N cycles in every cell; "
               "fail fast with a spin-audit/v1 report on violation"),
        argFlag("--profile", &profile, "per-phase wall-clock attribution"),
        argFlag("--reliability", &reliability,
                "run every cell with end-to-end reliable delivery on "
                "(docs/FAULTS.md)"),
        argU64("--wall-limit", &wallLimit,
               "per-cell wall-clock budget in seconds; overruns dump "
               "telemetry and fail fast (0 = off)"),
        argFlag("--live", &live,
                "single-line progress meter on stderr (auto when stderr "
                "is a TTY)"),
        argFlag("--progress", &progress, "per-cell progress on stderr"),
        argFlag("--cells", &printCells,
                "print the cell expansion and exit"),
        argFlag("--list", &list, "list built-in specs and presets"),
        argFlag("-h, --help", &help, "this message"),
    };
    const std::string usageText =
        "usage: spin_sweep --spec NAME|FILE [options]\n" + usage(specs);
    std::string err;
    if (!parseArgs(argc, argv, specs, err)) {
        std::fprintf(stderr, "spin_sweep: %s\n%s", err.c_str(),
                     usageText.c_str());
        return 2;
    }
    if (help) {
        std::printf("%s", usageText.c_str());
        return 0;
    }
    if (list) {
        listBuiltins();
        return 0;
    }
    if (specArg.empty()) {
        std::fprintf(stderr, "spin_sweep: --spec is required\n%s",
                     usageText.c_str());
        return 2;
    }

    SweepSpec spec;
    if (!builtinSpec(specArg, spec) &&
        !SweepSpec::fromFile(specArg, spec, err)) {
        std::fprintf(stderr, "spin_sweep: %s\n", err.c_str());
        return 2;
    }
    if (warmupSet)
        spec.warmup = warmup;
    if (measureSet)
        spec.measure = measure;
    if (fast) {
        spec.warmup /= 4;
        spec.measure = std::max<Cycle>(spec.measure / 4, 1);
    }
    if (reliability)
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

    CampaignOptions copt;
    copt.jobs = static_cast<int>(jobs);
    copt.threads = static_cast<int>(threads);
    copt.resume = resume;
    copt.progress = progress;
    copt.metricsPath = metricsPath;
    copt.metricsInterval = metricsInterval;
    copt.auditInterval = auditInterval;
    copt.wallLimitSeconds = wallLimit;
    copt.profile = profile;
    // The meter is for humans: auto-enable on a TTY unless per-cell
    // logging was requested, which it would overwrite.
    copt.live = live || (!progress && isatty(fileno(stderr)) != 0);
    if (!faultsPath.empty() &&
        !fault::FaultSchedule::fromFile(faultsPath, copt.faultSchedule,
                                        err)) {
        std::fprintf(stderr, "spin_sweep: %s\n", err.c_str());
        return 2;
    }
    if (!noCells)
        copt.cellDir = outDir.empty() ? "sweep-out/" + spec.name : outDir;
    if (jsonPath.empty() && !copt.cellDir.empty())
        jsonPath = copt.cellDir + "/results.json";

    std::printf("spin_sweep: spec '%s' (%s), %zu cells, %llu jobs, "
                "%llu threads/cell%s\n\n",
                spec.name.c_str(), spec.topology.c_str(), cells.size(),
                static_cast<unsigned long long>(jobs),
                static_cast<unsigned long long>(threads),
                resume ? ", resume" : "");

    Campaign campaign(spec, copt);
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
    if (profile)
        printPhaseProfile(campaign.profile().toJson());

    bool ok = true;
    if (!metricsPath.empty())
        std::printf("wrote %s\n", metricsPath.c_str());
    if (!jsonPath.empty()) {
        ok = writeJsonFile(jsonPath, results) && ok;
        if (ok)
            std::printf("wrote %s\n", jsonPath.c_str());
    }
    if (!benchJsonPath.empty()) {
        obs::JsonValue rec =
            benchRecord(spec, results, perf, static_cast<int>(jobs),
                        static_cast<int>(threads));
        // Wall-clock only; the baseline checker never reads it.
        if (profile)
            rec.set("profile", campaign.profile().toJson());
        ok = writeJsonFile(benchJsonPath, rec) && ok;
        if (ok)
            std::printf("wrote %s\n", benchJsonPath.c_str());
    }
    return ok ? 0 : 1;
}
