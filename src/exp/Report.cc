#include "exp/Report.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

namespace spin::exp
{

void
printSeries(const obs::JsonValue &results)
{
    const obs::JsonValue &series = results["series"];
    for (std::size_t i = 0; i < series.size(); ++i) {
        const obs::JsonValue &s = series.at(i);
        std::printf("## %s | %s | seed %llu\n",
                    s["preset"].asString().c_str(),
                    s["pattern"].asString().c_str(),
                    static_cast<unsigned long long>(s["seed"].asU64()));
        std::printf("%10s %14s %14s %6s\n", "rate", "latency(cy)",
                    "thru(f/n/c)", "sat");
        const obs::JsonValue &points = s["points"];
        for (std::size_t k = 0; k < points.size(); ++k) {
            const obs::JsonValue &p = points.at(k);
            std::printf("%10.3f %14.2f %14.4f %6s\n",
                        p["rate"].asNumber(), p["latency"].asNumber(),
                        p["throughput"].asNumber(),
                        p["saturated"].asBool() ? "yes" : "");
        }
        std::printf("-> saturation throughput ~ %.3f flits/node/cycle\n\n",
                    s["saturationRate"].asNumber());
    }
    std::printf("\n");
}

void
printSaturationSummary(const obs::JsonValue &results)
{
    const obs::JsonValue &series = results["series"];
    std::printf("=== Saturation-throughput summary (flits/node/cycle) "
                "===\n%-24s %-16s %8s\n", "config", "pattern", "sat");
    for (std::size_t i = 0; i < series.size(); ++i) {
        const obs::JsonValue &s = series.at(i);
        std::printf("%-24s %-16s %8.3f\n",
                    s["preset"].asString().c_str(),
                    s["pattern"].asString().c_str(),
                    s["saturationRate"].asNumber());
    }
    std::printf("\n");
}

void
printLinkUtilization(const obs::JsonValue &results)
{
    std::printf("=== Link-cycle utilization ===\n%-24s %-16s %8s %8s %8s "
                "%8s %10s %8s\n", "config", "pattern", "rate", "flit%",
                "probe%", "move%", "sm-total%", "idle%");
    const obs::JsonValue &cells = results["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const obs::JsonValue &c = cells.at(i);
        const obs::JsonValue &u = c["linkUsage"];
        const double total = u["totalCycles"].asNumber();
        if (total <= 0)
            continue;
        const double flit = u["flitCycles"].asNumber() / total;
        const double probe = u["probeCycles"].asNumber() / total;
        const double move = u["moveCycles"].asNumber() / total;
        const double idle = u["idleCycles"].asNumber() / total;
        std::printf("%-24s %-16s %8.2f %8.2f %8.2f %8.2f %10.2f %8.2f\n",
                    c["preset"].asString().c_str(),
                    c["pattern"].asString().c_str(), c["rate"].asNumber(),
                    100 * flit, 100 * probe, 100 * move,
                    100 * (probe + move), 100 * idle);
    }
    std::printf("\n");
}

void
printSpinCounts(const obs::JsonValue &results)
{
    const obs::JsonValue &cells = results["cells"];
    std::printf("=== Spins and false positives ===\n");
    std::string group;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const obs::JsonValue &c = cells.at(i);
        const std::string here =
            c["preset"].asString() + " | " + c["pattern"].asString();
        if (here != group) {
            group = here;
            std::printf("--- %s ---\n%8s %10s %14s %12s %12s\n",
                        group.c_str(), "rate", "spins", "false-pos",
                        "probes", "probe-ret");
        }
        const obs::JsonValue &sp = c["stats"]["spin"];
        std::printf(
            "%8.2f %10llu %14llu %12llu %12llu\n", c["rate"].asNumber(),
            static_cast<unsigned long long>(sp["spins"].asU64()),
            static_cast<unsigned long long>(
                sp["falsePositiveSpins"].asU64()),
            static_cast<unsigned long long>(sp["probesSent"].asU64()),
            static_cast<unsigned long long>(sp["probesReturned"].asU64()));
    }
    std::printf("\n");
}

bool
writeJsonFile(const std::string &path, const obs::JsonValue &doc)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    os << doc.dump(2) << '\n';
    return static_cast<bool>(os);
}

void
printPhaseProfile(const obs::JsonValue &profile)
{
    const obs::JsonValue &phases = profile["phases"];
    const double total = profile["totalNs"].asNumber();
    const double cycles = profile["cycles"].asNumber();
    std::printf("== phase profile: %.0f cycles, %.1f ms wall, "
                "%.0f ns/cycle ==\n",
                cycles, total / 1e6,
                profile["nsPerCycle"].asNumber());
    // Share-sorted rows; ties keep the phase-enum order.
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &kv : phases.members())
        rows.emplace_back(kv.second["ns"].asNumber(), kv.first);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (const auto &[ns, name] : rows) {
        if (ns <= 0)
            continue;
        std::printf("  %-12s %10.1f ms  %5.1f%%\n", name.c_str(),
                    ns / 1e6, total > 0 ? 100.0 * ns / total : 0.0);
    }
    std::printf("\n");
}

} // namespace spin::exp
