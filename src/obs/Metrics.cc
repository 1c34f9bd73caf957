#include "obs/Metrics.hh"

#include <algorithm>

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin::obs
{

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

std::unique_ptr<StreamMetricsSink>
StreamMetricsSink::open(const std::string &path)
{
    auto sink = std::unique_ptr<StreamMetricsSink>(new StreamMetricsSink());
    sink->own_.open(path);
    if (!sink->own_)
        return nullptr;
    sink->os_ = &sink->own_;
    return sink;
}

double
histogramPercentile(const std::vector<std::uint64_t> &buckets, double p)
{
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets)
        total += b;
    if (total == 0)
        return 0.0;
    p = std::clamp(p, 1e-9, 1.0);
    const double target = p * double(total);
    double seen = 0.0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const double in_bucket = double(buckets[b]);
        if (in_bucket > 0 && seen + in_bucket >= target) {
            // Bucket b holds values in [2^(b-1), 2^b); interpolate.
            // Buckets beyond 62 cannot occur for cycle-valued data but
            // are clamped anyway so the shift stays defined.
            const unsigned shift =
                static_cast<unsigned>(std::min<std::size_t>(b, 62));
            const double lo = b == 0 ? 0.0 : double(1ull << (shift - 1));
            const double hi = double(1ull << shift);
            return lo + (target - seen) / in_bucket * (hi - lo);
        }
        seen += in_bucket;
    }
    // Rounding pushed the target past the last occupied bucket: the
    // largest bucket's upper edge is the best answer.
    for (std::size_t b = buckets.size(); b-- > 0;) {
        if (buckets[b] > 0)
            return double(1ull << std::min<std::size_t>(b, 62));
    }
    return 0.0;
}

// ---------------------------------------------------------------------
// NetworkMetrics
// ---------------------------------------------------------------------

NetworkMetrics::NetworkMetrics(Network &net, MetricsConfig cfg,
                               std::unique_ptr<MetricsSink> sink)
    : net_(net), cfg_(std::move(cfg)), sink_(std::move(sink))
{
    SPIN_ASSERT(sink_, "null metrics sink");
    SPIN_ASSERT(cfg_.interval > 0, "metrics interval must be positive");

    // Per-vnet input-VC occupancy (flits buffered network-wide) is the
    // series the VC-management analyses plot against throughput.
    gaugeNames_ = {"net.packetsInFlight", "nic.queuedPackets",
                   "spin.smsInFlight", "faults.pendingEvents"};
    for (VnetId v = 0; v < net_.config().vnets; ++v)
        gaugeNames_.push_back("occupancy.vnet" + std::to_string(v));
    gaugeNames_.push_back("occupancy.total");

    // Pre-escape every constant fragment of the window record once;
    // emitWindow() only appends numbers between them.
    if (!cfg_.label.empty())
        cellField_ = ",\"cell\":\"" + JsonValue::escape(cfg_.label) + "\"";
    const auto key = [](const std::string &name) {
        return "\"" + JsonValue::escape(name) + "\":";
    };
    for (const StatsCounter &c : kStatsCounters) {
        if (c.metric == StatMetric::Pub)
            counterKeys_.push_back(key(c.path));
    }
    for (const std::string &name : gaugeNames_)
        gaugeKeys_.push_back(key(name));

    windowStart_ = net_.now();
    last_ = net_.stats();
    emitHeader();
}

NetworkMetrics::~NetworkMetrics()
{
    finish(net_.now());
}

void
NetworkMetrics::readGauges()
{
    Network &n = net_;
    gauges_.clear();
    gauges_.push_back(double(n.packetsInFlight()));
    double queued = 0;
    for (NodeId i = 0; i < n.numNodes(); ++i)
        queued += double(n.nic(i).queueLength());
    gauges_.push_back(queued);
    const SpinManager *sm = n.spinManager();
    gauges_.push_back(sm ? double(sm->smsInFlight()) : 0.0);
    const fault::FaultInjector *fi = n.faults();
    gauges_.push_back(fi ? double(fi->events().size() - fi->applied())
                         : 0.0);
    for (VnetId v = 0; v < n.config().vnets; ++v) {
        std::uint64_t flits = 0;
        for (RouterId r = 0; r < n.numRouters(); ++r)
            flits += n.router(r).bufferedFlitsInVnet(v);
        gauges_.push_back(double(flits));
    }
    double total = 0;
    for (RouterId r = 0; r < n.numRouters(); ++r)
        total += double(n.router(r).bufferedFlits());
    gauges_.push_back(total);
    SPIN_ASSERT(gauges_.size() == gaugeKeys_.size(), "gauge list drift");
}

JsonValue
NetworkMetrics::record(const char *kind) const
{
    // Every line is self-describing: consumers validate any record in
    // isolation (check_metrics_schema.py does exactly that).
    JsonValue o = JsonValue::object();
    o.set("schema", JsonValue("spin-metrics/v2"));
    o.set("kind", JsonValue(kind));
    if (!cfg_.label.empty())
        o.set("cell", JsonValue(cfg_.label));
    return o;
}

void
NetworkMetrics::emitHeader()
{
    JsonValue o = record("header");
    o.set("interval", JsonValue(cfg_.interval));
    o.set("startCycle", JsonValue(windowStart_));

    JsonValue cfg = JsonValue::object();
    cfg.set("name", JsonValue(net_.config().name));
    cfg.set("scheme", JsonValue(toString(net_.config().scheme)));
    cfg.set("routing", JsonValue(net_.routing().name()));
    cfg.set("vnets", JsonValue(net_.config().vnets));
    cfg.set("vcsPerVnet", JsonValue(net_.config().vcsPerVnet));
    cfg.set("seed", JsonValue(net_.config().seed));
    cfg.set("numRouters", JsonValue(net_.numRouters()));
    cfg.set("numNodes", JsonValue(net_.numNodes()));
    cfg.set("numLinks", JsonValue(net_.numLinks()));
    o.set("config", std::move(cfg));

    JsonValue counters = JsonValue::array();
    for (const StatsCounter &c : kStatsCounters) {
        if (c.metric == StatMetric::Pub)
            counters.push(JsonValue(c.path));
    }
    o.set("counters", std::move(counters));
    JsonValue gauges = JsonValue::array();
    for (const std::string &name : gaugeNames_)
        gauges.push(JsonValue(name));
    o.set("gauges", std::move(gauges));
    JsonValue hists = JsonValue::array();
    hists.push(JsonValue("latency"));
    o.set("histograms", std::move(hists));
    sink_->line(o.dump(0));
}

void
NetworkMetrics::onMeasurementBegin(Cycle now)
{
    last_ = net_.stats();
    windowStart_ = now;
    JsonValue o = record("measurement-begin");
    o.set("cycle", JsonValue(now));
    sink_->line(o.dump(0));
}

namespace
{

/** Window delta of a cumulative value. beginMeasurement re-baselines
 *  through onMeasurementBegin, so a value below its baseline can only
 *  mean an out-of-band reset: restart from zero. */
std::uint64_t
delta(std::uint64_t cur, std::uint64_t last)
{
    return cur >= last ? cur - last : cur;
}

} // namespace

void
NetworkMetrics::emitWindow(Cycle now)
{
    // Serialized by hand into a reused buffer -- byte-identical with
    // the JsonValue::dump(0) rendering of the same record, but without
    // the per-window tree allocations (the off/on micro_router gate
    // budgets 2% for the whole enabled engine).
    if (now <= windowStart_)
        return;
    const Stats &cur = net_.stats();
    readGauges();

    std::string &b = buf_;
    b.clear();
    b += "{\"schema\":\"spin-metrics/v2\",\"kind\":\"window\"";
    b += cellField_;
    b += ",\"seq\":";
    JsonValue::appendNumber(b, double(windows_));
    b += ",\"cycleStart\":";
    JsonValue::appendNumber(b, double(windowStart_));
    b += ",\"cycleEnd\":";
    JsonValue::appendNumber(b, double(now));

    // Every row's delta lands in window_ (the derived block below reads
    // it through Stats' own averages); the Pub rows are also emitted.
    b += ",\"counters\":{";
    std::size_t k = 0;
    for (const StatsCounter &c : kStatsCounters) {
        window_.*c.field = delta(cur.*c.field, last_.*c.field);
        if (c.metric != StatMetric::Pub)
            continue;
        if (k)
            b += ',';
        b += counterKeys_[k++];
        JsonValue::appendNumber(b, double(window_.*c.field));
    }

    b += "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
        if (i)
            b += ',';
        b += gaugeKeys_[i];
        JsonValue::appendNumber(b, gauges_[i]);
    }

    // Latency bucket deltas (the bucket array only ever grows).
    std::vector<std::uint64_t> &hist = window_.latencyHist;
    hist.resize(cur.latencyHist.size());
    for (std::size_t bk = 0; bk < hist.size(); ++bk) {
        hist[bk] = delta(cur.latencyHist[bk], bk < last_.latencyHist.size()
                                                  ? last_.latencyHist[bk]
                                                  : 0);
    }
    b += "},\"hist\":{\"latency\":[";
    for (std::size_t bk = 0; bk < hist.size(); ++bk) {
        if (bk)
            b += ',';
        JsonValue::appendNumber(b, double(hist[bk]));
    }

    window_.windowStart = windowStart_;
    b += "]},\"derived\":{\"throughput\":";
    JsonValue::appendNumber(b, window_.throughput(net_.numNodes(), now));
    b += ",\"latencyAvg\":";
    JsonValue::appendNumber(b, window_.avgLatency());
    b += ",\"latencyP50\":";
    JsonValue::appendNumber(b, histogramPercentile(hist, 0.5));
    b += ",\"latencyP99\":";
    JsonValue::appendNumber(b, histogramPercentile(hist, 0.99));
    b += "}}";

    sink_->line(b);
    ++windows_;
    windowStart_ = now;
    last_ = cur;
}

void
NetworkMetrics::finish(Cycle now)
{
    if (finished_)
        return;
    finished_ = true;
    emitWindow(now);
    JsonValue o = record("finish");
    o.set("cycle", JsonValue(now));
    o.set("windows", JsonValue(windows_));
    sink_->line(o.dump(0));
    sink_->flush();
}

} // namespace spin::obs
