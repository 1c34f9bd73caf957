#include "stats/Stats.hh"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>

#include "obs/Metrics.hh"

namespace spin
{

void
Stats::onEject(const Packet &pkt)
{
    ++packetsEjected;
    flitsEjected += pkt.sizeFlits;
    const std::uint64_t lat = pkt.latency();
    latencySum += lat;
    netLatencySum += pkt.networkLatency();
    hopsSum += pkt.hops;
    maxLatency = std::max(maxLatency, lat);
    spinsOfEjected += pkt.spins;
    if (pkt.corrupted)
        ++packetsCorrupted;

    const unsigned bucket = lat == 0
        ? 0
        : std::bit_width(lat);
    if (latencyHist.size() <= bucket)
        latencyHist.resize(bucket + 1, 0);
    ++latencyHist[bucket];
}

void
Stats::reset(Cycle now)
{
    for (const StatsCounter &c : kStatsCounters) {
        if (c.reset == StatReset::Window)
            this->*c.field = 0;
    }
    latencyHist.clear();
    windowStart = now;
}

void
Stats::mergeFrom(const Stats &o)
{
    // Straight-line on purpose: Network::commitShards runs this for
    // every shard after every sharded phase.
#define SPIN_STATS_MERGE(field, path, merge, reset, metric)               \
    field = StatMerge::merge == StatMerge::Max ? std::max(field, o.field) \
                                               : field + o.field;
    SPIN_STATS_COUNTERS(SPIN_STATS_MERGE)
#undef SPIN_STATS_MERGE
    if (latencyHist.size() < o.latencyHist.size())
        latencyHist.resize(o.latencyHist.size(), 0);
    for (std::size_t b = 0; b < o.latencyHist.size(); ++b)
        latencyHist[b] += o.latencyHist[b];
}

double
Stats::latencyPercentile(double p) const
{
    // No packets retired means there is nothing to rank: return 0
    // rather than walking (and interpolating past the end of) an empty
    // or stale histogram. The shared helper ranks against the
    // histogram's own population, so a histogram that briefly disagrees
    // with packetsEjected (mid-update) still yields a value inside the
    // recorded range.
    if (packetsEjected == 0 || latencyHist.empty())
        return 0.0;
    return obs::histogramPercentile(latencyHist, p);
}

double
Stats::avgLatency() const
{
    return packetsEjected ? double(latencySum) / packetsEjected : 0.0;
}

double
Stats::avgNetLatency() const
{
    return packetsEjected ? double(netLatencySum) / packetsEjected : 0.0;
}

double
Stats::avgHops() const
{
    return packetsEjected ? double(hopsSum) / packetsEjected : 0.0;
}

double
Stats::throughput(int num_nodes, Cycle now) const
{
    const Cycle elapsed = now - windowStart;
    if (elapsed == 0 || num_nodes == 0)
        return 0.0;
    return double(flitsEjected) / double(num_nodes) / double(elapsed);
}

obs::JsonValue
Stats::toJson() const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    for (const StatsCounter &c : kStatsCounters) {
        // Walk (creating on first use) the dotted groups of the path;
        // rows are in document order, so groups appear in row order.
        JsonValue *group = &o;
        std::string_view path = c.path;
        for (std::size_t dot = path.find('.'); dot != path.npos;
             dot = path.find('.')) {
            const std::string name(path.substr(0, dot));
            JsonValue *child = group->find(name);
            group = child ? child : &group->set(name, JsonValue::object());
            path.remove_prefix(dot + 1);
        }
        group->set(std::string(path), JsonValue(this->*c.field));
    }

    JsonValue hist = JsonValue::array();
    for (const std::uint64_t b : latencyHist)
        hist.push(JsonValue(b));
    o.find("traffic")->set("latencyHist", std::move(hist));

    JsonValue derived = JsonValue::object();
    derived.set("avgLatency", JsonValue(avgLatency()));
    derived.set("avgNetLatency", JsonValue(avgNetLatency()));
    derived.set("avgHops", JsonValue(avgHops()));
    derived.set("p50Latency", JsonValue(latencyPercentile(0.5)));
    derived.set("p99Latency", JsonValue(latencyPercentile(0.99)));
    o.set("derived", std::move(derived));

    o.set("windowStart", JsonValue(windowStart));
    return o;
}

} // namespace spin
