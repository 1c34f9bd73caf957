/**
 * @file
 * The run flags every front-end shares, and the per-network
 * instrumentation they drive.
 *
 * RunOptions is the one record of a run's command-line switches: each
 * field is set by one row of flags(), so spin_sweep (through
 * CampaignOptions) and the benches accept the same spelling, default
 * and help text for every switch they share, and each names the subset
 * it reads. Instruments attaches what the record asks for -- the
 * --metrics stream, the --profile phase timers, the --trace sink -- to
 * one network and collects what it recorded into a Recording, whose
 * metrics lines make up the combined --metrics file in run order.
 * BenchReporter writes a bench's outputs from the same record.
 */

#ifndef SPINNOC_EXP_RUNOPTIONS_HH
#define SPINNOC_EXP_RUNOPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/Config.hh"
#include "exp/ArgParse.hh"
#include "obs/Json.hh"
#include "obs/Profiler.hh"
#include "sim/Parallel.hh"

namespace spin
{
class Network;
}

namespace spin::obs
{
class MemoryMetricsSink;
}

namespace spin::exp
{

/** See file comment; each field is set by one row of flags(). */
struct RunOptions
{
    bool fast = false;
    std::uint64_t seed = 0;
    bool seedSet = false;
    /** Threads inside each simulated network's step(). Results are
     *  bit-identical for any value (docs/SCALING.md), so this is an
     *  execution knob and never lands in a results document. */
    int threads = 1;
    /** End-to-end reliable delivery with ReliabilityConfig's default
     *  knobs; off keeps runs byte-identical to historical baselines. */
    bool reliability = false;
    std::string jsonPath;
    /** Combined spin-metrics/v2 JSONL path; empty records no metrics. */
    std::string metricsPath;
    std::uint64_t metricsInterval = 256;
    /** Attribute wall-clock time to step() phases in every network. */
    bool profile = false;
    std::string tracePath;
    std::string faultsPath;
    /** Wall-clock watchdog in seconds per simulated network; 0
     *  disables. An overrun dumps telemetry (plus NIC retransmit
     *  state) and fails fast instead of hanging CI. */
    std::uint64_t wallLimit = 0;
    /** Run the invariant auditor every N cycles; 0 disables. */
    std::uint64_t auditInterval = 0;

    /** Every run flag, defined once, bound to this object's fields. */
    std::vector<ArgSpec> flags();
    /** The rows of flags() named in @p accepted, in table order. */
    std::vector<ArgSpec> flags(const std::vector<std::string> &accepted);

    /** Bench entry: parse exactly the @p accepted run flags through
     *  parseCommandLine() (which exits on --help or a usage error). */
    static RunOptions parse(int argc, char **argv,
                            const std::vector<std::string> &accepted);

    /** Apply --seed, --threads and --reliability to a raw config before
     *  building (for benches that assemble their own NetworkConfig). */
    void apply(NetworkConfig &cfg) const;
};

/** What a run's networks recorded: --metrics lines in run order and
 *  the merged --profile phase totals. */
struct Recording
{
    std::vector<std::string> metrics;
    obs::PhaseProfiler profile;

    /** Append @p later's lines after this one's and merge its totals. */
    void append(Recording &&later);

    /** Write the lines, one per line, as the combined --metrics file
     *  at @p path (creating its directory). False when it cannot be
     *  written. */
    bool writeMetrics(const std::string &path) const;
};

/**
 * Instruments one freshly built network as a RunOptions asks: the
 * --metrics stream (records tagged with a label) buffered in memory,
 * the --profile phase timers and the --trace sink (an unopenable trace
 * path warns and the run continues untraced).
 */
class Instruments
{
  public:
    Instruments(Network &net, const RunOptions &run,
                const std::string &label);

    /** After the run, once: finish the metrics stream and append its
     *  lines and the network's phase totals to @p out. */
    void collect(Recording &out);

  private:
    Network &net_;
    obs::MemoryMetricsSink *metrics_ = nullptr;
};

/** Write a front-end's JSON output: "wrote PATH" on stdout, or
 *  "cannot open PATH" on stderr and false. */
bool writeOutput(const std::string &path, const obs::JsonValue &doc);

/**
 * Collects the result sections of a bench run and writes what its
 * RunOptions ask for: the --json document (the machine-readable twin
 * of the printed tables), the --metrics file and the --profile
 * summary.
 */
class BenchReporter
{
  public:
    BenchReporter(const std::string &bench_name, const RunOptions &run);

    /** Attach an arbitrary extra section (e.g. raw Stats::toJson()). */
    void add(const std::string &section, obs::JsonValue v);

    obs::JsonValue &root() { return root_; }
    /** Where the bench's Instruments collect. */
    Recording &recording() { return recording_; }

    /** Write the --metrics file (an unwritable path warns), print the
     *  --profile summary and fold it into the document, then write the
     *  --json document. False when the document cannot be written. */
    bool finish();

  private:
    const RunOptions &run_;
    obs::JsonValue root_;
    Recording recording_;
};

} // namespace spin::exp

#endif // SPINNOC_EXP_RUNOPTIONS_HH
