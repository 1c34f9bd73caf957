#include "exp/RunOptions.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>

#include "common/Logging.hh"
#include "exp/Report.hh"
#include "network/Network.hh"
#include "obs/Metrics.hh"
#include "obs/Tracer.hh"

namespace spin::exp
{

std::vector<ArgSpec>
RunOptions::flags()
{
    return {
        argFlag("--fast", &fast, "quarter-scale run lengths"),
        argU64("--seed", &seed, "override the configuration's RNG seed",
               &seedSet),
        argU64("-t, --threads", &threads,
               "threads inside each simulated network (default 1; "
               "results bit-identical for any value, docs/SCALING.md)"),
        argFlag("--reliability", &reliability,
                "end-to-end reliable delivery: CRC, link retry, NIC "
                "retransmission (docs/FAULTS.md)"),
        argStr("--json", &jsonPath, "write the results as JSON"),
        argStr("--metrics", &metricsPath,
               "combined spin-metrics/v2 JSONL of every simulated "
               "network (docs/OBSERVABILITY.md)"),
        argU64("--metrics-interval", &metricsInterval,
               "metrics window in cycles (default 256)"),
        argFlag("--profile", &profile, "per-phase wall-clock attribution"),
        argStr("--trace", &tracePath,
               "write a Chrome trace of the simulated network"),
        argStr("--faults", &faultsPath,
               "inject a spin-faults/v2 schedule (docs/FAULTS.md)"),
        argU64("--wall-limit", &wallLimit,
               "wall-clock budget in seconds per simulated network; an "
               "overrun dumps telemetry and fails fast (0 = off)"),
        argU64("--audit", &auditInterval,
               "run the invariant auditor every N cycles; a violation "
               "fails fast with a spin-audit/v1 report"),
    };
}

std::vector<ArgSpec>
RunOptions::flags(const std::vector<std::string> &accepted)
{
    std::vector<ArgSpec> out;
    for (ArgSpec &spec : flags()) {
        for (const std::string &name : accepted) {
            if (spec.spelledAs(name)) {
                out.push_back(std::move(spec));
                break;
            }
        }
    }
    SPIN_ASSERT(out.size() == accepted.size(),
                "accepted list names a flag missing from flags()");
    return out;
}

RunOptions
RunOptions::parse(int argc, char **argv,
                  const std::vector<std::string> &accepted)
{
    RunOptions o;
    parseCommandLine(argc, argv, o.flags(accepted));
    return o;
}

void
RunOptions::apply(NetworkConfig &cfg) const
{
    if (seedSet)
        cfg.seed = seed;
    cfg.threads = threads > 0 ? static_cast<int>(threads) : 1;
    if (reliability)
        cfg.reliability.enabled = true;
}

void
Recording::append(Recording &&later)
{
    metrics.insert(metrics.end(),
                   std::make_move_iterator(later.metrics.begin()),
                   std::make_move_iterator(later.metrics.end()));
    profile.merge(later.profile);
}

bool
Recording::writeMetrics(const std::string &path) const
{
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream os(path);
    for (const std::string &line : metrics)
        os << line << '\n';
    return static_cast<bool>(os);
}

Instruments::Instruments(Network &net, const RunOptions &run,
                         const std::string &label)
    : net_(net)
{
    if (!run.metricsPath.empty()) {
        auto sink = std::make_unique<obs::MemoryMetricsSink>();
        metrics_ = sink.get();
        obs::MetricsConfig mcfg;
        mcfg.interval = run.metricsInterval > 0 ? run.metricsInterval : 256;
        mcfg.label = label;
        net.enableMetrics(mcfg, std::move(sink));
    }
    if (run.profile)
        net.enableProfiler();
    if (!run.tracePath.empty()) {
        if (auto sink = obs::ChromeTraceSink::open(run.tracePath))
            net.setTracer(std::make_unique<obs::Tracer>(std::move(sink)));
        else
            std::fprintf(stderr, "cannot open trace file %s\n",
                         run.tracePath.c_str());
    }
}

void
Instruments::collect(Recording &out)
{
    if (metrics_) {
        net_.metrics()->finish(net_.now());
        out.metrics.insert(out.metrics.end(), metrics_->lines().begin(),
                           metrics_->lines().end());
    }
    if (const obs::PhaseProfiler *prof = net_.profiler())
        out.profile.merge(*prof);
}

bool
writeOutput(const std::string &path, const obs::JsonValue &doc)
{
    if (!obs::writeJsonFile(path, doc)) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

BenchReporter::BenchReporter(const std::string &bench_name,
                             const RunOptions &run)
    : run_(run), root_(obs::JsonValue::object())
{
    using obs::JsonValue;
    root_.set("bench", JsonValue(bench_name));
    JsonValue o = JsonValue::object();
    o.set("fast", JsonValue(run.fast));
    if (run.seedSet)
        o.set("seed", JsonValue(run.seed));
    if (!run.faultsPath.empty())
        o.set("faults", JsonValue(run.faultsPath));
    root_.set("options", std::move(o));
}

void
BenchReporter::add(const std::string &section, obs::JsonValue v)
{
    root_.set(section, std::move(v));
}

bool
BenchReporter::finish()
{
    if (!run_.metricsPath.empty() &&
        !recording_.writeMetrics(run_.metricsPath)) {
        std::fprintf(stderr, "cannot open metrics file %s\n",
                     run_.metricsPath.c_str());
    }
    if (run_.profile) {
        const obs::JsonValue prof = recording_.profile.toJson();
        printPhaseProfile(prof);
        root_.set("profile", prof);
    }
    return run_.jsonPath.empty() || writeOutput(run_.jsonPath, root_);
}

} // namespace spin::exp
