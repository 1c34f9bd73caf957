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

#include "exp/RunOptions.hh"
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
    /** Worker threads pulling whole cells (spin_sweep's -j takes 1 to
     *  kMaxThreads); 1 runs inline. */
    int jobs = 1;
    /** Per-cell result directory; empty disables cell files + resume. */
    std::string cellDir;
    /** Reuse existing per-cell files instead of re-simulating. */
    bool resume = false;
    /** Progress lines on stderr ("[12/30] cell ..."). */
    bool progress = false;
    /**
     * Single-line live progress meter on stderr (cells done/total,
     * cells/sec, ETA, worker utilization), redrawn a few times per
     * second. Meant for TTYs; `progress` is the log-friendly variant.
     */
    bool live = false;
    /**
     * The run flags every simulated cell reads:
     *  - `threads` inside each cell's step() (-t takes 1 to kMaxThreads).
     *    Orthogonal to `jobs`, and results are bit-identical for any
     *    value, but a non-default count is folded into the resume
     *    fingerprint so caches produced under different intra-cell
     *    parallelism are never silently mixed.
     *  - `metricsPath`: every cell buffers its windowed metrics (records
     *    tagged with the cell id); after the workers join they are
     *    written in expansion order, so the file is bit-identical for
     *    any -j. Cells reloaded from the resume cache contribute none.
     *  - `profile` totals aggregate into Campaign::profile().
     *  - `auditInterval` and `wallLimit` fail a cell fast, with the
     *    spin-audit/v1 report or the telemetry dump next to its cell
     *    file (see runCell).
     * The caller applies `fast` and `reliability` to the spec and loads
     * `faultsPath` into the Campaign's schedule.
     */
    RunOptions run;
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
    /** @p limit_seconds 0 disables the guard. */
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

/** See file comment. */
class Campaign
{
  public:
    /** @p faults, when not empty, is attached to every cell on top of
     *  the spec's own fault dimension (spin_sweep --faults). It is the
     *  same for every cell, so the aggregate stays bit-identical for
     *  any -j, and it is part of the resume fingerprint. */
    Campaign(SweepSpec spec, CampaignOptions opt,
             fault::FaultSchedule faults = {});

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

    /**
     * Simulate one cell in isolation (used by run() and the tests),
     * instrumented as @p run asks; what it records is appended to
     * @p recording when given. @p extra_faults is attached on top of
     * the cell's own fault dimension. An --audit violation or a
     * --wall-limit overrun writes its report next to @p cell_file
     * (`<file>.audit.json`, `<file>.wall.json`), or to
     * spin-audit-violation.json / spin-wall-limit.json when it is
     * empty, and throws FatalError.
     */
    static obs::JsonValue
    runCell(const SweepSpec &spec, const Cell &cell,
            const std::shared_ptr<const Topology> &topo,
            const RunOptions &run = {},
            const fault::FaultSchedule &extra_faults = {},
            Recording *recording = nullptr,
            const std::string &cell_file = "");

  private:
    SweepSpec spec_;
    CampaignOptions opt_;
    fault::FaultSchedule faults_;
    CampaignPerf perf_;
    obs::PhaseProfiler profile_;

    std::string cellPath(const Cell &cell) const;
    /** Load a cached cell result; Null when absent or invalid. */
    obs::JsonValue loadCached(const Cell &cell) const;
    bool storeCell(const Cell &cell, const obs::JsonValue &result) const;
};

} // namespace spin::exp

#endif // SPINNOC_EXP_CAMPAIGN_HH
