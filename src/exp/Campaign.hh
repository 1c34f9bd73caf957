/**
 * @file
 * Multi-threaded experiment-campaign runner.
 *
 * Every cell of a SweepSpec is an independent simulation: one Network,
 * one injector, a warmup window and a measurement window. Workers pull
 * cells from a shared counter; because each cell's RNG seed is derived
 * from its coordinates alone (SweepSpec), the aggregated results are
 * bit-identical for any worker count -- aggregation always walks cells
 * in expansion order, and wall-clock timing lives outside the
 * deterministic document.
 *
 * Resume: with a cell directory configured, each finished cell is
 * written to `<dir>/<cell-id>.json` (atomically, via rename). A later
 * run of the same spec with resume enabled reloads those files instead
 * of re-simulating; mixing cached and fresh cells cannot change the
 * aggregate because cached results are themselves the deterministic
 * per-cell documents.
 */

#ifndef SPINNOC_EXP_CAMPAIGN_HH
#define SPINNOC_EXP_CAMPAIGN_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/SweepSpec.hh"
#include "fault/FaultSchedule.hh"
#include "network/Network.hh"
#include "obs/Json.hh"
#include "obs/Profiler.hh"

namespace spin::exp
{

/** Runner knobs (everything outside the deterministic spec). */
struct CampaignOptions
{
    /** Worker threads pulling whole cells; clamped to [1, 64].
     *  1 runs inline. */
    int jobs = 1;
    /**
     * Worker threads inside each cell's Network::step() (spin_sweep
     * --threads; docs/SCALING.md). Orthogonal to `jobs`: jobs spreads
     * cells across cores, threads spreads one simulation. Results are
     * bit-identical for any value; the resume fingerprint still folds
     * a non-default value in, so caches produced under different
     * intra-cell parallelism are never silently mixed.
     */
    int threads = 1;
    /** Per-cell result directory; empty disables cell files + resume. */
    std::string cellDir;
    /** Reuse existing per-cell files instead of re-simulating. */
    bool resume = false;
    /** Progress lines on stderr ("[12/30] cell ..."). */
    bool progress = false;
    /**
     * Fixed fault schedule attached to every cell's network (e.g. from
     * spin_sweep --faults). Applied in addition to the spec's own
     * random-failure dimension; identical for every cell, so the
     * aggregate stays bit-identical for any -j.
     */
    fault::FaultSchedule faultSchedule;
    /**
     * Combined spin-metrics/v2 JSONL path; empty disables per-cell
     * metrics. Every simulated cell captures its windowed metrics into
     * a memory buffer (records tagged with the cell id); after the
     * workers join, the buffers are concatenated in expansion order, so
     * the file is bit-identical for any -j. Cells reloaded from the
     * resume cache contribute no records.
     */
    std::string metricsPath;
    /** Metrics window length in cycles. */
    Cycle metricsInterval = 256;
    /**
     * Audit the runtime invariants every N cycles in every simulated
     * cell (spin_sweep --audit N); 0 disables. A violation aborts the
     * campaign with the spin-audit/v1 report written next to the cell
     * file (see CellCapture::auditReportPath).
     */
    Cycle auditInterval = 0;
    /**
     * Single-line live progress meter on stderr (cells done/total,
     * cells/sec, ETA, worker utilization), redrawn a few times per
     * second. Meant for TTYs; `progress` is the log-friendly variant.
     */
    bool live = false;
    /** Attribute wall-clock time to step() phases in every simulated
     *  cell; totals aggregate into Campaign::profile(). */
    bool profile = false;
    /**
     * Per-cell wall-clock watchdog in seconds (spin_sweep
     * --wall-limit); 0 disables. A cell that overruns dumps its
     * telemetry (including NIC retransmit state) next to the cell file
     * and fails the campaign fast instead of hanging the worker pool.
     */
    std::uint64_t wallLimitSeconds = 0;
};

/** Wall-clock accounting of one run() (not part of the results). */
struct CampaignPerf
{
    double wallSeconds = 0.0;
    std::size_t cells = 0;          //!< total cells in the spec
    std::size_t cellsSimulated = 0; //!< actually run this time
    std::size_t cellsCached = 0;    //!< reloaded from the cell dir
    std::uint64_t cyclesSimulated = 0;

    double
    cellsPerSec() const
    {
        return wallSeconds > 0 ? cellsSimulated / wallSeconds : 0.0;
    }
    double
    cyclesPerSec() const
    {
        return wallSeconds > 0 ? cyclesSimulated / wallSeconds : 0.0;
    }
};

/**
 * Wall-clock watchdog for --wall-limit (spin_sweep cells and the
 * benches alike): check() is called once per simulated cycle and reads
 * the clock every 1024 calls. On overrun it writes the network's
 * telemetry -- plus every nonempty NIC retransmit queue, the first
 * thing to read when the reliability protocol livelocks -- to the
 * report path and throws FatalError, so a wedged run leaves forensics
 * instead of hanging its caller.
 */
class WallLimitGuard
{
  public:
    /** @p limit_seconds 0 disables the guard; an empty @p report_path
     *  keeps the diagnosis in the exception message only. */
    WallLimitGuard(std::uint64_t limit_seconds, std::string report_path);

    void
    check(Network &net)
    {
        if (limit_ != 0 && (++ticks_ & 1023u) == 0)
            checkClock(net);
    }

  private:
    void checkClock(Network &net) const;

    std::uint64_t limit_;
    std::string reportPath_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t ticks_ = 0;
};

/** Optional per-cell instrumentation for Campaign::runCell. */
struct CellCapture
{
    /** Metrics window length; used when metricsOut is set. */
    Cycle metricsInterval = 256;
    /** When non-null, receives the cell's spin-metrics/v2 lines. */
    std::vector<std::string> *metricsOut = nullptr;
    /** When non-null, the cell runs profiled and its phase totals are
     *  merged in. */
    obs::PhaseProfiler *profileOut = nullptr;
    /**
     * Run the runtime invariant auditor (deadlock/Invariants.hh) every
     * N cycles; 0 disables. The first violation fails the cell fast:
     * the spin-audit/v1 report is written to auditReportPath (when
     * set) and the cell throws FatalError.
     */
    Cycle auditInterval = 0;
    /** Destination for the failure report; empty keeps it in the
     *  exception message only. */
    std::string auditReportPath;
    /** Threads inside the cell's Network::step()
     *  (CampaignOptions::threads). */
    int threads = 1;
    /** Wall-clock budget for this cell in seconds; 0 disables
     *  (CampaignOptions::wallLimitSeconds). On overrun the cell writes
     *  its telemetry to wallReportPath (when set) and throws. */
    std::uint64_t wallLimitSeconds = 0;
    /** Destination for the overrun telemetry dump; empty keeps the
     *  diagnosis in the exception message only. */
    std::string wallReportPath;
};

/** See file comment. */
class Campaign
{
  public:
    Campaign(SweepSpec spec, CampaignOptions opt);

    /**
     * Run (or resume) the campaign and return the aggregated results
     * document: {schema, spec, cells[], series[]}. Deterministic for a
     * given spec -- independent of jobs, resume state, and machine.
     * Throws FatalError when any cell fails.
     */
    obs::JsonValue run();

    /** Wall-clock accounting of the last run(). */
    const CampaignPerf &perf() const { return perf_; }

    /** Aggregated phase profile of the last run() (profile option;
     *  zero cycles when it was off). Not part of the results. */
    const obs::PhaseProfiler &profile() const { return profile_; }

    /** Simulate one cell in isolation (used by run() and the tests).
     *  @p extra_faults, when non-null, is attached on top of the cell's
     *  own fault dimension. */
    static obs::JsonValue
    runCell(const SweepSpec &spec, const Cell &cell,
            const std::shared_ptr<const Topology> &topo,
            const fault::FaultSchedule *extra_faults = nullptr,
            const CellCapture &capture = {});

  private:
    SweepSpec spec_;
    CampaignOptions opt_;
    CampaignPerf perf_;
    obs::PhaseProfiler profile_;

    std::string cellPath(const Cell &cell) const;
    /** Load a cached cell result; Null when absent or invalid. */
    obs::JsonValue loadCached(const Cell &cell) const;
    bool storeCell(const Cell &cell, const obs::JsonValue &result) const;
};

} // namespace spin::exp

#endif // SPINNOC_EXP_CAMPAIGN_HH
