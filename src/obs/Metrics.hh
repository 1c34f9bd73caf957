/**
 * @file
 * Windowed time-series metrics engine.
 *
 * NetworkMetrics snapshots the network every `interval` cycles into a
 * versioned `spin-metrics/v2` JSONL stream: one header record, then one
 * record per window. It reads three kinds of instrument:
 *
 *  - **counters** -- the Pub rows of the Stats counter table
 *    (SPIN_STATS_COUNTERS in stats/Stats.hh), under their table paths;
 *    every window emits the *delta* over the window.
 *  - **gauges** -- a fixed list of instantaneous values sampled at the
 *    window boundary (packets in flight, NIC queue depth, SMs in
 *    flight, pending fault events, per-vnet and total VC occupancy).
 *  - **histograms** -- Stats::latencyHist, log2-bucketed and
 *    cumulative; every window emits the per-bucket delta plus p50/p99
 *    interpolated within it.
 *
 * All record content derives from simulation state alone, so the
 * stream is bit-identical across runs and worker counts.
 *
 * Hot-path contract (same as the Tracer): the Network holds a
 * `unique_ptr<NetworkMetrics>` that is null unless enableMetrics() was
 * called; Network::step() pays exactly one predicted branch per cycle
 * when metrics are disabled, and one modulo check per cycle when they
 * are enabled. All real work happens on window boundaries.
 */

#ifndef SPINNOC_OBS_METRICS_HH
#define SPINNOC_OBS_METRICS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/Types.hh"
#include "obs/Json.hh"
#include "stats/Stats.hh"

namespace spin
{
class Network;
}

namespace spin::obs
{

/** Metrics parameters. */
struct MetricsConfig
{
    /** Cycles per window (snapshot period). */
    Cycle interval = 256;
    /**
     * Label stamped into every record as "cell" (campaign runs tag
     * each cell's stream so many cells can share one file). Empty
     * omits the field.
     */
    std::string label;
};

/** Destination for spin-metrics/v2 JSONL records (one per line). */
class MetricsSink
{
  public:
    virtual ~MetricsSink() = default;
    virtual void line(const std::string &text) = 0;
};

/** Buffers records in memory (every run's --metrics, tests). */
class MemoryMetricsSink : public MetricsSink
{
  public:
    void line(const std::string &text) override
    {
        lines_.push_back(text);
    }
    const std::vector<std::string> &lines() const { return lines_; }

  private:
    std::vector<std::string> lines_;
};

/**
 * Percentile from a log2-bucket histogram delta (bucket b holds values
 * in [2^(b-1), 2^b), geometric interpolation). Exposed for the window
 * emitter, Stats, and the tests. @p p is clamped into (0, 1].
 */
double histogramPercentile(const std::vector<std::uint64_t> &buckets,
                           double p);

/** See file comment. Owned by the Network; created by enableMetrics. */
class NetworkMetrics
{
  public:
    /** Writes the header record. @p sink must not be null. */
    NetworkMetrics(Network &net, MetricsConfig cfg,
                   std::unique_ptr<MetricsSink> sink);
    ~NetworkMetrics();

    NetworkMetrics(const NetworkMetrics &) = delete;
    NetworkMetrics &operator=(const NetworkMetrics &) = delete;

    const MetricsConfig &config() const { return cfg_; }

    /** Called by Network::step() every cycle; emits on window ticks. */
    void
    tick(Cycle now)
    {
        if (now == 0 || now % cfg_.interval != 0)
            return;
        emitWindow(now);
    }

    /**
     * Warmup-reset hook (Network::beginMeasurement). Windowed series
     * restart like the Window rows of the Stats table: the counter and
     * histogram baseline is re-read *after* the Stats reset, and a
     * "measurement-begin" marker record is written so consumers can
     * split warmup from measurement. Keep rows (structural fault
     * counters) survive inside Stats itself and keep accumulating.
     */
    void onMeasurementBegin(Cycle now);

    /**
     * Emit the final partial window (when any cycles elapsed since the
     * last boundary) and the finish record. Idempotent; also run by
     * the destructor so attach-and-forget captures are never
     * truncated.
     */
    void finish(Cycle now);

    /** Windows emitted so far (partial final window included). */
    std::uint64_t windowsEmitted() const { return windows_; }

  private:
    void emitHeader();
    void emitWindow(Cycle now);
    /** Fill gauges_ with the current gauge values, in gaugeKeys_
     *  order. */
    void readGauges();
    /** Stamp schema/cell/kind prologue fields shared by all records. */
    JsonValue record(const char *kind) const;

    Network &net_;
    MetricsConfig cfg_;
    std::unique_ptr<MetricsSink> sink_;

    /** Stats at the start of the current window (the delta baseline)
     *  and, reused, the deltas of the window being emitted. */
    Stats last_;
    Stats window_;
    Cycle windowStart_ = 0;
    std::uint64_t windows_ = 0;
    bool finished_ = false;

    /** Gauge names in header order. */
    std::vector<std::string> gaugeNames_;

    /**
     * Reused window-serialization state. emitWindow() hand-rolls its
     * JSON into buf_ (byte-identical with JsonValue::dump(0)) instead
     * of building a JsonValue tree: the tree's per-window string
     * allocations were the dominant cost of the enabled engine, which
     * CI budgets at 2% of step time (tools/check_metrics_overhead.py).
     * Keys never change after construction, so they are pre-escaped
     * once.
     */
    std::string cellField_;                //!< ',"cell":"<label>"' or ""
    std::vector<std::string> counterKeys_; //!< '"<path>":' per Pub row
    std::vector<std::string> gaugeKeys_;
    std::string buf_;
    std::vector<double> gauges_;
};

} // namespace spin::obs

#endif // SPINNOC_OBS_METRICS_HH
