/**
 * @file
 * Host-side simulator self-profiler: attributes wall-clock time to the
 * simulation phases of Network::step() (fault injection, wire
 * arrivals, SPIN special messages, rotations, bubble recovery,
 * injection, route compute, switch allocation, FSM timers, telemetry)
 * so hot-path work shows *where* a change helped without an external
 * profiler.
 *
 * Cost model: disabled (the default), each phase hook is one
 * pointer-null test -- the same contract as the tracer. Enabled, each
 * phase pays two steady_clock reads per cycle, which perturbs absolute
 * cycles/s; the *shares* remain meaningful, which is what the summary
 * reports. Wall-clock data is inherently machine-dependent, so the
 * summary lives next to the deterministic documents (telemetry
 * "profile" section, the spin_sweep --bench-json "profile" block),
 * never inside them.
 */

#ifndef SPINNOC_OBS_PROFILER_HH
#define SPINNOC_OBS_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/Json.hh"

namespace spin::obs
{

/** One timed phase of Network::step(). */
enum class Phase : std::uint8_t
{
    Faults,      //!< FaultInjector::tick
    Wires,       //!< link/NIC wire drains (traversal delivery)
    SpecialMsg,  //!< SPIN SM phase (probe/move processing)
    Rotation,    //!< SPIN synchronized rotations
    Bubble,      //!< Static Bubble recovery grants
    Injection,   //!< NIC injection
    Routing,     //!< route compute + VC allocation
    SwitchAlloc, //!< switch allocation + link traversal
    FsmTimers,   //!< SPIN counter FSMs
    Telemetry,   //!< metrics window work
    Count
};

/** Short stable name ("faults", "routing", ...). */
const char *phaseName(Phase p);

/** See file comment. */
class PhaseProfiler
{
  public:
    using clock = std::chrono::steady_clock;

    void
    add(Phase p, std::uint64_t ns)
    {
        ns_[static_cast<std::size_t>(p)] += ns;
    }
    /** Count one profiled cycle (called once per step). */
    void onCycle() { ++cycles_; }

    std::uint64_t phaseNs(Phase p) const
    {
        return ns_[static_cast<std::size_t>(p)];
    }
    std::uint64_t totalNs() const;
    std::uint64_t cycles() const { return cycles_; }

    /** Fold another profiler's totals into this one (campaigns). */
    void merge(const PhaseProfiler &other);

    /**
     * {"schema":"spin-profile/v1","cycles":...,"totalNs":...,
     *  "nsPerCycle":...,"phases":{name:{"ns":...,"share":...}}}
     */
    JsonValue toJson() const;

  private:
    std::array<std::uint64_t, static_cast<std::size_t>(Phase::Count)>
        ns_{};
    std::uint64_t cycles_ = 0;
};

/**
 * RAII phase timer: no-op (one predicted branch) when @p prof is null.
 * Scope instances must not be nested for the same profiler phase.
 */
class PhaseScope
{
  public:
    PhaseScope(PhaseProfiler *prof, Phase phase)
        : prof_(prof), phase_(phase)
    {
        if (prof_)
            t0_ = PhaseProfiler::clock::now();
    }
    ~PhaseScope()
    {
        if (prof_) {
            prof_->add(phase_,
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
                               PhaseProfiler::clock::now() - t0_)
                               .count()));
        }
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    PhaseProfiler *prof_;
    Phase phase_;
    PhaseProfiler::clock::time_point t0_;
};

} // namespace spin::obs

#endif // SPINNOC_OBS_PROFILER_HH
