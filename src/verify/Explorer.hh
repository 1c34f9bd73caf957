/**
 * @file
 * Explicit-state exploration engine for spin_model.
 *
 * The checker is *replay-based stateless*: a run is fully determined by
 * its RunSpec (scenario, mutation, fault cycle, perturbation list), so
 * instead of checkpointing simulator state the explorer re-executes
 * runs from cycle 0 and perturbs the SM schedule through the
 * SpinManager interceptor. Exploration is a breadth-first walk over
 * perturbation prefixes:
 *
 *  - Every run starts from the scenario's deterministic baseline (one
 *    root per fault cycle for fault scenarios).
 *  - While a run executes with spare perturbation budget, every SM
 *    launch it observes is a *choice point*: the explorer enqueues
 *    child runs that additionally Delay or Drop that SM.
 *  - Choice points are deduplicated by (canonical state digest at the
 *    decision, verdicts already issued that cycle, SM identity,
 *    action), so re-executions of a shared prefix do not re-enqueue
 *    the same children.
 *  - Runs whose perturbations are all consumed are cut short when the
 *    canonical digest of the current state was already fully explored
 *    with at least as much remaining budget (visited-state dedup; ring
 *    scenarios additionally canonicalize over rotations).
 *
 * Runs are simulated in parallel on a worker pool (ExplorerOptions::
 * jobs) and their effects committed in frontier order, so explore()
 * returns exactly what one run at a time would for any worker count:
 *
 *  - The next batch of frontier runs (16 per worker) is simulated
 *    against the visited set as it stood when the batch began; nothing
 *    writes to it during a batch. A run logs each visited digest and
 *    each Delay/Drop branch instead of writing them.
 *  - The calling thread then commits the logs in frontier order,
 *    against the live sets: a run ends at its first visit the live set
 *    covers, its branches up to there join the frontier, and its trail
 *    joins the visited set unless it fell off the horizon unchecked.
 *  - This is exact because a run's trajectory depends on the shared
 *    sets only through where it is pruned (every SM that is not one of
 *    its own choices is delivered whatever the sets hold), and the
 *    visited set only grows (no entry is erased, no budget falls): a
 *    run simulated against an older snapshot stops no earlier than the
 *    one-at-a-time run would, and everything it logged up to that stop
 *    is what that run does.
 *
 * Checked on every cycle of every run: the runtime flit/credit/freeze
 * auditor (deadlock/Invariants.hh) extended with verification-only
 * invariants, the Fig. 4a FSM transition relation, and per-source
 * committed-spin uniqueness. Checked at the horizon: bounded liveness
 * -- every packet must drain within formation + (k + 2 + budget) full
 * priority rotations, k = m - 1 being the paper's spin bound for
 * minimal routing (Theorem 1, p = 0). Checked at quiescence: flit
 * conservation (ejected + fault-lost == offered).
 */

#ifndef SPINNOC_VERIFY_EXPLORER_HH
#define SPINNOC_VERIFY_EXPLORER_HH

#include <cstdint>
#include <vector>

#include "sim/Parallel.hh"
#include "verify/Scenarios.hh"
#include "verify/Trace.hh"

namespace spin::verify
{

struct ExplorerOptions
{
    /** Max perturbations (Delay/Drop choices) per run. */
    int budget = 2;
    /** Stop after this many runs; 0 = run the frontier dry. */
    std::uint64_t maxRuns = 0;
    /** Stop after collecting this many violations. */
    std::uint64_t maxViolations = 8;
    /** Protocol defect injected into every run. */
    ProtocolMutation mutation = ProtocolMutation::None;
    /** Flag runs that neither quiesce nor get pruned by the horizon. */
    bool checkLiveness = true;
    /** Worker threads simulating runs (clamped to [1, kMaxThreads]);
     *  the result is identical for any value. */
    int jobs = availableCpus();
};

struct ExploreResult
{
    std::uint64_t runs = 0;            //!< runs executed
    std::uint64_t statesVisited = 0;   //!< distinct canonical digests
    std::uint64_t prunedRuns = 0;      //!< runs cut short by dedup
    std::uint64_t choicePoints = 0;    //!< distinct (state, SM, action)
    std::uint64_t cyclesSimulated = 0; //!< total cycles across runs
    /** False when maxRuns/maxViolations stopped exploration early. */
    bool exhausted = true;
    std::vector<Violation> violations;
};

/** Exhaustively explore @p sc up to @p opt's budget. */
ExploreResult explore(const Scenario &sc, const ExplorerOptions &opt);

/** Outcome of one deterministic re-execution (spin_model --replay). */
struct ReplayResult
{
    bool violated = false;
    Violation violation; //!< valid when violated
    bool quiescent = false;
    Cycle endCycle = 0;
};

/** Re-execute @p spec against its scenario @p sc deterministically. */
ReplayResult replay(const Scenario &sc, const RunSpec &spec);

/**
 * Greedily shrink @p v's perturbation list: drop one choice at a time,
 * keeping the drop whenever the violation (same kind) still
 * reproduces. Returns the minimal reproducing violation.
 */
Violation minimize(const Scenario &sc, const Violation &v);

} // namespace spin::verify

#endif // SPINNOC_VERIFY_EXPLORER_HH
