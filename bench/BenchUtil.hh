/**
 * @file
 * Shared harness for the classic table/figure benches (the ones that
 * drive their own networks instead of a sweep spec): the flag table,
 * --metrics/--profile/--trace plumbing, the --wall-limit watchdog and
 * the --json reporter.
 *
 * Every bench flag is one row of Options::flags(). A bench's main()
 * names the subset it reads; Options::parse() accepts exactly those
 * (anything else exits 2 with the usage) and generates --help from the
 * same rows. The printed rows/series match the paper's figure; absolute
 * numbers differ from the paper's gem5 testbed, the *shape* is what
 * EXPERIMENTS.md validates.
 */

#ifndef SPINNOC_BENCH_BENCHUTIL_HH
#define SPINNOC_BENCH_BENCHUTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/Logging.hh"
#include "exp/ArgParse.hh"
#include "exp/Report.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "obs/Profiler.hh"
#include "obs/Tracer.hh"

namespace spin::bench
{

/** Bench CLI options; each field is set by one row of flags(). */
struct Options
{
    bool fast = false;
    std::uint64_t seed = 0;
    bool seedSet = false;
    /** Threads inside each simulated network's step(). Results are
     *  bit-identical for any value (docs/SCALING.md), so this is an
     *  execution knob and never lands in the JSON export. */
    std::uint64_t threads = 1;
    /** End-to-end reliable delivery with ReliabilityConfig's default
     *  knobs; off keeps runs byte-identical to historical baselines. */
    bool reliability = false;
    std::string jsonPath;
    std::string metricsPath;
    Cycle metricsInterval = 256;
    bool profile = false;
    std::string tracePath;
    std::string faultsPath;
    /** Wall-clock watchdog in seconds; 0 disables. On overrun the bench
     *  dumps telemetry (plus NIC retransmit state) and fails fast
     *  instead of hanging CI. */
    std::uint64_t wallLimit = 0;

    /** Every bench flag, defined once, bound to this object's fields. */
    std::vector<exp::ArgSpec>
    flags()
    {
        return {
            exp::argFlag("--fast", &fast, "quarter-scale smoke run"),
            exp::argU64("--seed", &seed, "override the preset RNG seed",
                        &seedSet),
            exp::argU64("--threads", &threads,
                        "threads inside each simulated network (default "
                        "1; bit-identical results for any N)"),
            exp::argFlag("--reliability", &reliability,
                         "end-to-end reliable delivery: CRC, link retry, "
                         "NIC retransmission (docs/FAULTS.md)"),
            exp::argStr("--json", &jsonPath, "write results as JSON"),
            exp::argStr("--metrics", &metricsPath,
                        "spin-metrics/v2 JSONL of every simulated network"),
            exp::argU64("--metrics-interval", &metricsInterval,
                        "metrics window in cycles (default 256)"),
            exp::argFlag("--profile", &profile,
                         "per-phase wall-clock attribution"),
            exp::argStr("--trace", &tracePath,
                        "write a Chrome trace of the simulated network"),
            exp::argStr("--faults", &faultsPath,
                        "inject faults from a spin-faults/v2 spec"),
            exp::argU64("--wall-limit", &wallLimit,
                        "fail fast after N wall-clock seconds with a "
                        "telemetry dump (0 = off)"),
        };
    }

    /** The rows of flags() named in @p accepted, in table order. */
    std::vector<exp::ArgSpec>
    flags(const std::vector<std::string> &accepted)
    {
        std::vector<exp::ArgSpec> out;
        for (exp::ArgSpec &spec : flags()) {
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

    /**
     * Testable parser core: parse @p argv against the @p accepted
     * subset of flags(). Unknown or unaccepted flags, missing values
     * and malformed numerics fail with @p err set; never exits.
     */
    static bool
    parseInto(Options &o, int argc, char **argv,
              const std::vector<std::string> &accepted, std::string &err)
    {
        return exp::parseArgs(argc, argv, o.flags(accepted), err);
    }

    /** CLI entry: parse the @p accepted flags plus -h/--help, or exit
     *  (0 after --help, 2 with the usage on any parse error). */
    static Options
    parse(int argc, char **argv, const std::vector<std::string> &accepted)
    {
        Options o;
        bool help = false;
        std::vector<exp::ArgSpec> specs = o.flags(accepted);
        specs.push_back(exp::argFlag("-h, --help", &help, "this message"));
        std::string err;
        if (!exp::parseArgs(argc, argv, specs, err)) {
            std::fprintf(stderr, "%s: %s\n%s", argv[0], err.c_str(),
                         exp::usage(specs).c_str());
            std::exit(2);
        }
        if (help) {
            std::printf("usage: %s [options]\n%s", argv[0],
                        exp::usage(specs).c_str());
            std::exit(0);
        }
        return o;
    }

    /** Apply --seed, --threads and --reliability to a raw config before
     *  building (for benches that assemble their own NetworkConfig). */
    void
    apply(NetworkConfig &cfg) const
    {
        if (seedSet)
            cfg.seed = seed;
        cfg.threads = threads > 0 ? static_cast<int>(threads) : 1;
        if (reliability)
            cfg.reliability.enabled = true;
    }

    /** Apply the same overrides to a preset before building. */
    void
    apply(ConfigPreset &p) const
    {
        apply(p.cfg);
    }
};

/**
 * Shared append stream for --metrics: a bench simulates many networks
 * (fig03: one per pattern and rate) that all publish into one JSONL
 * file, so the stream is opened once per path and every network gets a
 * borrowing StreamMetricsSink. Returns nullptr (after complaining once)
 * when the path cannot be opened. Benches are single-threaded by
 * construction.
 */
inline std::ostream *
sharedMetricsStream(const std::string &path)
{
    static std::map<std::string, std::unique_ptr<std::ofstream>> streams;
    auto it = streams.find(path);
    if (it == streams.end()) {
        auto os = std::make_unique<std::ofstream>(path);
        if (!*os) {
            std::fprintf(stderr, "cannot open metrics file %s\n",
                         path.c_str());
            os.reset();
        }
        it = streams.emplace(path, std::move(os)).first;
    }
    return it->second ? it->second.get() : nullptr;
}

/** Enable --metrics publication on a freshly built network. @p label
 *  tags every record ("cell" field), e.g. "mesh-spin|uniform|0.42". */
inline void
attachMetrics(Network &net, const Options &opt, const std::string &label)
{
    if (opt.metricsPath.empty())
        return;
    std::ostream *os = sharedMetricsStream(opt.metricsPath);
    if (!os)
        return;
    obs::MetricsConfig mcfg;
    mcfg.interval = opt.metricsInterval > 0 ? opt.metricsInterval : 256;
    mcfg.label = label;
    net.enableMetrics(mcfg, std::make_unique<obs::StreamMetricsSink>(*os));
}

/** Process-wide phase-profile accumulator for --profile: every network
 *  a bench simulates merges its totals here before destruction. */
inline obs::PhaseProfiler &
profileTotals()
{
    static obs::PhaseProfiler totals;
    return totals;
}

/**
 * Wall-clock watchdog for --wall-limit: sampled every ~1024 simulated
 * cycles (cheap enough for inner loops). On overrun it writes the
 * network's telemetry -- including per-NIC retransmit state when any
 * retransmit queue is nonempty -- to spin-wall-limit.json and fails
 * fast, so a livelocked or wedged run leaves forensics instead of
 * hanging CI.
 */
class WallLimitGuard
{
  public:
    explicit WallLimitGuard(std::uint64_t limit_seconds)
        : limit_(limit_seconds),
          start_(std::chrono::steady_clock::now())
    {}

    void
    check(Network &net)
    {
        if (limit_ == 0 || (++ticks_ & 1023u) != 0)
            return;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        if (static_cast<std::uint64_t>(elapsed) < limit_)
            return;
        obs::JsonValue doc = net.telemetryJson();
        obs::JsonValue retx = obs::JsonValue::array();
        for (int n = 0; n < net.numNodes(); ++n) {
            Nic &nic = net.nic(static_cast<NodeId>(n));
            if (nic.retxQueueLength() > 0)
                retx.push(nic.retxJson(net.now()));
        }
        doc.set("retx", std::move(retx));
        const char *path = "spin-wall-limit.json";
        std::ofstream os(path);
        os << doc.dump(2) << '\n';
        SPIN_FATAL("wall-clock limit of ", limit_,
                   "s exceeded at cycle ", net.now(),
                   "; telemetry: ", path);
    }

  private:
    std::uint64_t limit_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t ticks_ = 0;
};

/** Attach a Chrome trace sink for --trace; an unopenable path warns
 *  and the run continues untraced. */
inline void
attachTrace(Network &net, const Options &opt)
{
    if (opt.tracePath.empty())
        return;
    if (auto sink = obs::ChromeTraceSink::open(opt.tracePath))
        net.setTracer(std::make_unique<obs::Tracer>(std::move(sink)));
    else
        std::fprintf(stderr, "cannot open trace file %s\n",
                     opt.tracePath.c_str());
}

/**
 * Collects the result sections of a bench run and, on request, writes
 * them as one JSON document -- the machine-readable twin of the printed
 * tables.
 */
class BenchReporter
{
  public:
    explicit BenchReporter(const std::string &bench_name,
                           const Options &opt)
        : root_(obs::JsonValue::object())
    {
        using obs::JsonValue;
        root_.set("bench", JsonValue(bench_name));
        JsonValue o = JsonValue::object();
        o.set("fast", JsonValue(opt.fast));
        if (opt.seedSet)
            o.set("seed", JsonValue(opt.seed));
        if (!opt.faultsPath.empty())
            o.set("faults", JsonValue(opt.faultsPath));
        root_.set("options", std::move(o));
    }

    /** Attach an arbitrary extra section (e.g. raw Stats::toJson()). */
    void
    add(const std::string &section, obs::JsonValue v)
    {
        root_.set(section, std::move(v));
    }

    obs::JsonValue &root() { return root_; }

    /** Print/export the --profile summary and write to opt.jsonPath
     *  when --json was given. True on success. */
    bool
    writeIfRequested(const Options &opt)
    {
        if (opt.profile) {
            const obs::JsonValue prof = profileTotals().toJson();
            exp::printPhaseProfile(prof);
            root_.set("profile", prof);
        }
        if (opt.jsonPath.empty())
            return true;
        if (!exp::writeJsonFile(opt.jsonPath, root_))
            return false;
        std::printf("wrote %s\n", opt.jsonPath.c_str());
        return true;
    }

  private:
    obs::JsonValue root_;
};

} // namespace spin::bench

#endif // SPINNOC_BENCH_BENCHUTIL_HH
