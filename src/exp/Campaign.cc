#include "exp/Campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/Hash.hh"
#include "common/Logging.hh"
#include "deadlock/Invariants.hh"
#include "fault/FaultInjector.hh"
#include "fault/FaultSchedule.hh"
#include "network/Network.hh"
#include "traffic/SyntheticInjector.hh"

namespace spin::exp
{

namespace
{

/** Spec fingerprint stamped into cell files to invalidate stale caches.
 *  A fixed fault schedule changes every cell's behaviour, so it is part
 *  of the fingerprint even though it lives outside the spec. */
std::string
specFingerprint(const SweepSpec &spec, const fault::FaultSchedule &faults,
                int threads)
{
    std::string text = spec.toJson().dump(0);
    if (!faults.empty())
        text += faults.toJson().dump(0);
    // Intra-cell threading cannot change results (docs/SCALING.md),
    // but mixing caches across thread counts would mask a determinism
    // regression, so a non-default count taints the fingerprint. The
    // default stays unfolded to keep existing caches valid.
    if (threads != 1)
        text += "threads=" + std::to_string(threads);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      Fnv1a().bytes(text).value()));
    return buf;
}

} // namespace

WallLimitGuard::WallLimitGuard(std::uint64_t limit_seconds,
                               std::string report_path)
    : limit_(limit_seconds), reportPath_(std::move(report_path)),
      start_(std::chrono::steady_clock::now())
{}

void
WallLimitGuard::checkClock(Network &net) const
{
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    if (static_cast<std::uint64_t>(secs) < limit_)
        return;
    obs::JsonValue doc = net.telemetryJson();
    obs::JsonValue retx = obs::JsonValue::array();
    for (int n = 0; n < net.numNodes(); ++n) {
        Nic &nic = net.nic(static_cast<NodeId>(n));
        if (nic.retxQueueLength() > 0)
            retx.push(nic.retxJson(net.now()));
    }
    doc.set("retx", std::move(retx));
    obs::writeJsonFile(reportPath_, doc);
    SPIN_FATAL("wall-clock limit of ", limit_, "s exceeded at cycle ",
               net.now(), "; telemetry: ", reportPath_);
}

Campaign::Campaign(SweepSpec spec, CampaignOptions opt,
                   fault::FaultSchedule faults)
    : spec_(std::move(spec)), opt_(std::move(opt)),
      faults_(std::move(faults))
{
    const std::string verr = spec_.validate();
    if (!verr.empty())
        SPIN_FATAL(verr);
}

obs::JsonValue
Campaign::runCell(const SweepSpec &spec, const Cell &cell,
                  const std::shared_ptr<const Topology> &topo,
                  const RunOptions &run,
                  const fault::FaultSchedule &extra_faults,
                  Recording *recording, const std::string &cell_file)
{
    const ConfigPreset *reg = findPreset(cell.preset);
    SPIN_ASSERT(reg, "cell references unknown preset ", cell.preset);
    ConfigPreset preset = *reg;
    preset.cfg.seed = cell.netSeed;
    preset.cfg.threads = run.threads;
    // The reliability dimension toggles the protocol with its default
    // knobs; per-knob sweeps go through dedicated specs/presets.
    preset.cfg.reliability.enabled = cell.reliability;

    auto net = preset.build(topo);
    InjectorConfig icfg;
    icfg.injectionRate = cell.rate;
    icfg.seed = cell.netSeed + 1;
    SyntheticInjector inj(*net, cell.pattern, icfg);

    fault::FaultSchedule faults = extra_faults;
    if (cell.faultCount > 0) {
        // The schedule seed derives from the cell seed alone, so a cell
        // is bit-identical however the campaign is parallelized.
        const fault::FaultSchedule dim =
            fault::FaultSchedule::randomLinkFailures(
                cell.faultCount, cell.netSeed + 2, spec.faultCycle);
        faults.events.insert(faults.events.end(), dim.events.begin(),
                             dim.events.end());
    }
    if (!faults.empty())
        net->attachFaults(std::move(faults));

    Instruments instruments(*net, run, cell.id);

    // Fail-fast invariant audit (spin_sweep --audit N): the same
    // oracle the model checker uses per cycle, sampled every N cycles
    // of a full-scale run. The first violation writes the spin-audit/v1
    // report and aborts the cell.
    const auto maybeAudit = [&]() {
        if (run.auditInterval == 0 || net->now() % run.auditInterval != 0)
            return;
        const AuditReport rep = auditNetwork(*net);
        if (rep.clean())
            return;
        obs::JsonValue doc = rep.toJson();
        doc.set("cell", obs::JsonValue(cell.id));
        doc.set("cycle", obs::JsonValue(net->now()));
        const std::string path = cell_file.empty()
                                     ? "spin-audit-violation.json"
                                     : cell_file + ".audit.json";
        obs::writeJsonFile(path, doc);
        SPIN_FATAL("invariant audit failed at cycle ", net->now(), " (",
                   rep.violations.size(), " violation(s): ",
                   rep.violations.front(), "); report: ", path);
    };

    WallLimitGuard wall(run.wallLimit, cell_file.empty()
                                           ? "spin-wall-limit.json"
                                           : cell_file + ".wall.json");

    for (Cycle i = 0; i < spec.warmup; ++i) {
        inj.tick();
        net->step();
        maybeAudit();
        wall.check(*net);
    }
    net->beginMeasurement();
    for (Cycle i = 0; i < spec.measure; ++i) {
        inj.tick();
        net->step();
        maybeAudit();
        wall.check(*net);
    }

    if (recording)
        instruments.collect(*recording);

    const double latency = net->stats().avgLatency();
    const double throughput =
        net->stats().throughput(net->numNodes(), net->now());
    const bool saturated =
        latency > spec.latencyCap || throughput < 0.9 * cell.rate;

    using obs::JsonValue;
    JsonValue c = JsonValue::object();
    c.set("cell", JsonValue(cell.id));
    c.set("index", JsonValue(static_cast<std::uint64_t>(cell.index)));
    c.set("preset", JsonValue(cell.preset));
    c.set("pattern", JsonValue(toString(cell.pattern)));
    c.set("rate", JsonValue(cell.rate));
    c.set("seed", JsonValue(cell.seed));
    c.set("netSeed", JsonValue(cell.netSeed));
    c.set("faults", JsonValue(cell.faultCount));
    // Key present only on reliability cells: off-cell documents stay
    // byte-identical to those written before the dimension existed.
    if (cell.reliability)
        c.set("reliability", JsonValue(true));
    if (const fault::FaultInjector *fi = net->faults())
        c.set("faultSchedule", fi->toJson());
    c.set("latency", JsonValue(latency));
    c.set("netLatency", JsonValue(net->stats().avgNetLatency()));
    c.set("throughput", JsonValue(throughput));
    c.set("saturated", JsonValue(saturated));
    c.set("stats", net->stats().toJson());
    c.set("linkUsage", net->linkUsage().toJson());
    return c;
}

std::string
Campaign::cellPath(const Cell &cell) const
{
    return opt_.cellDir + "/" + cell.id + ".json";
}

obs::JsonValue
Campaign::loadCached(const Cell &cell) const
{
    std::string err;
    const obs::JsonValue doc = obs::readJsonFile(cellPath(cell), err);
    if (!doc.isObject())
        return {};
    const obs::JsonValue *id = doc.find("cell");
    const obs::JsonValue *fp = doc.find("specFingerprint");
    const obs::JsonValue *stats = doc.find("stats");
    if (!id || !id->isString() || id->asString() != cell.id || !fp ||
        !fp->isString() ||
        fp->asString() !=
            specFingerprint(spec_, faults_, opt_.run.threads) ||
        !stats || !stats->isObject()) {
        return {};
    }
    return doc;
}

bool
Campaign::storeCell(const Cell &cell, const obs::JsonValue &result) const
{
    const std::string path = cellPath(cell);
    const std::string tmp = path + ".tmp";
    if (!obs::writeJsonFile(tmp, result))
        return false;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return !ec;
}

obs::JsonValue
Campaign::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    perf_ = CampaignPerf{};

    std::string terr;
    const std::shared_ptr<const Topology> topo =
        makeTopologyByName(spec_.topology, terr);
    if (!topo)
        SPIN_FATAL(terr);

    const std::vector<Cell> cells = spec_.expand();
    perf_.cells = cells.size();
    std::vector<obs::JsonValue> results(cells.size());
    const std::string fingerprint =
        specFingerprint(spec_, faults_, opt_.run.threads);

    if (!opt_.cellDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.cellDir, ec);
        if (ec)
            SPIN_FATAL("cannot create cell directory ", opt_.cellDir,
                       ": ", ec.message());
    }

    // Resume pass: reload finished cells; anything else gets simulated.
    std::vector<std::size_t> pending;
    pending.reserve(cells.size());
    for (const Cell &cell : cells) {
        if (opt_.resume && !opt_.cellDir.empty()) {
            obs::JsonValue cached = loadCached(cell);
            if (cached.isObject()) {
                cached.remove("specFingerprint"); // cache metadata
                results[cell.index] = std::move(cached);
                ++perf_.cellsCached;
                continue;
            }
        }
        pending.push_back(cell.index);
    }

    // Per-cell recordings, indexed by expansion order. Workers write
    // disjoint slots; they are combined after the join, so the metrics
    // file is bit-identical for any -j.
    std::vector<Recording> recordings(cells.size());

    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::size_t> done{0};
    std::atomic<int> busy{0};
    std::mutex errMutex;
    std::string firstError;
    std::mutex logMutex;

    const auto worker = [&]() {
        for (;;) {
            const std::size_t slot = next.fetch_add(1);
            if (slot >= pending.size())
                return;
            const Cell &cell = cells[pending[slot]];
            busy.fetch_add(1);
            try {
                obs::JsonValue r = runCell(
                    spec_, cell, topo, opt_.run, faults_,
                    &recordings[cell.index],
                    opt_.cellDir.empty() ? "" : cellPath(cell));
                // The fingerprint is cache metadata: it lands in the
                // cell file (loadCached validates against it) but
                // never in the aggregate, which must stay
                // bit-identical across knobs the fingerprint folds in
                // (e.g. --threads).
                r.set("specFingerprint", obs::JsonValue(fingerprint));
                if (!opt_.cellDir.empty() && !storeCell(cell, r)) {
                    std::lock_guard<std::mutex> lock(errMutex);
                    if (firstError.empty())
                        firstError =
                            "cannot write cell file " + cellPath(cell);
                }
                r.remove("specFingerprint");
                results[cell.index] = std::move(r);
                cycles.fetch_add(spec_.warmup + spec_.measure);
                const std::size_t n = done.fetch_add(1) + 1;
                busy.fetch_sub(1);
                if (opt_.progress) {
                    std::lock_guard<std::mutex> lock(logMutex);
                    std::fprintf(stderr, "[%zu/%zu] %s\n", n,
                                 pending.size(), cell.id.c_str());
                }
            } catch (const std::exception &e) {
                busy.fetch_sub(1);
                std::lock_guard<std::mutex> lock(errMutex);
                if (firstError.empty())
                    firstError = "cell " + cell.id + ": " + e.what();
                return;
            }
        }
    };

    const int jobs = static_cast<int>(
        std::min<std::size_t>(opt_.jobs, std::max<std::size_t>(
                                             pending.size(), 1)));

    // Live progress meter: one stderr line redrawn in place, fed only
    // by the atomics above, torn down before any result is used --
    // it can never affect the deterministic documents.
    std::atomic<bool> meterRun{opt_.live && !pending.empty()};
    std::thread meter;
    if (meterRun.load()) {
        meter = std::thread([&, jobs]() {
            const auto start = std::chrono::steady_clock::now();
            while (meterRun.load()) {
                const std::size_t d = done.load();
                const double secs =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                const double rate = secs > 0 ? d / secs : 0.0;
                char eta[32];
                if (d == 0 || rate <= 0) {
                    std::snprintf(eta, sizeof(eta), "--:--");
                } else {
                    const long left = std::lround(
                        double(pending.size() - d) / rate);
                    std::snprintf(eta, sizeof(eta), "%02ld:%02ld",
                                  left / 60, left % 60);
                }
                {
                    std::lock_guard<std::mutex> lock(logMutex);
                    std::fprintf(stderr,
                                 "\r[%zu/%zu cells] %.1f cells/s | "
                                 "ETA %s | workers %d/%d busy   ",
                                 d, pending.size(), rate, eta,
                                 busy.load(), jobs);
                    std::fflush(stderr);
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
            std::lock_guard<std::mutex> lock(logMutex);
            std::fprintf(stderr, "\r%78s\r", "");
            std::fflush(stderr);
        });
    }

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (int j = 0; j < jobs; ++j)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    meterRun.store(false);
    if (meter.joinable())
        meter.join();
    if (!firstError.empty())
        SPIN_FATAL("campaign '", spec_.name, "' failed: ", firstError);

    perf_.cellsSimulated = pending.size();
    perf_.cyclesSimulated = cycles.load();

    // Combined metrics stream and profile, in expansion order.
    Recording all;
    for (const Cell &cell : cells)
        all.append(std::move(recordings[cell.index]));
    profile_ = all.profile;
    if (!opt_.run.metricsPath.empty() &&
        !all.writeMetrics(opt_.run.metricsPath)) {
        SPIN_FATAL("cannot write metrics file ", opt_.run.metricsPath);
    }

    // ------------------------------------------------------------------
    // Deterministic aggregation: expansion order only, no wall clock.
    // ------------------------------------------------------------------
    using obs::JsonValue;
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("spin-sweep/v1"));
    root.set("spec", spec_.toJson());

    JsonValue cellArr = JsonValue::array();
    for (const Cell &cell : cells) {
        SPIN_ASSERT(results[cell.index].isObject(),
                    "missing result for cell ", cell.id);
        cellArr.push(results[cell.index]); // copy; series built below
    }
    root.set("cells", std::move(cellArr));

    // One series per (preset, pattern, seed): the latency/throughput
    // curve plus its estimated saturation rate, which the figure
    // tables in exp/Report print.
    JsonValue series = JsonValue::array();
    for (const std::string &preset : spec_.presets) {
        for (const Pattern pattern : spec_.patterns) {
            for (const std::uint64_t seed : spec_.seeds) {
              for (const int fc : spec_.faults) {
               for (const bool rel : spec_.reliability) {
                JsonValue s = JsonValue::object();
                s.set("preset", JsonValue(preset));
                s.set("pattern", JsonValue(toString(pattern)));
                s.set("seed", JsonValue(seed));
                s.set("faults", JsonValue(fc));
                if (rel)
                    s.set("reliability", JsonValue(true));
                JsonValue points = JsonValue::array();
                double saturation = 0.0;
                for (const Cell &cell : cells) {
                    if (cell.preset != preset ||
                        cell.pattern != pattern || cell.seed != seed ||
                        cell.faultCount != fc ||
                        cell.reliability != rel) {
                        continue;
                    }
                    const JsonValue &r = results[cell.index];
                    JsonValue p = JsonValue::object();
                    p.set("rate", JsonValue(cell.rate));
                    p.set("latency", r["latency"]);
                    p.set("throughput", r["throughput"]);
                    p.set("saturated", r["saturated"]);
                    if (!r["saturated"].asBool())
                        saturation = std::max(saturation, cell.rate);
                    points.push(std::move(p));
                }
                s.set("points", std::move(points));
                s.set("saturationRate", JsonValue(saturation));
                series.push(std::move(s));
               }
              }
            }
        }
    }
    root.set("series", std::move(series));

    perf_.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return root;
}

} // namespace spin::exp
