#include "verify/Explorer.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/Hash.hh"
#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "deadlock/Invariants.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "sim/Parallel.hh"
#include "stats/Stats.hh"
#include "verify/Digest.hh"

namespace spin::verify
{

namespace
{

enum class RunStatus : std::uint8_t
{
    Quiesced, //!< all packets drained, all FSMs settled
    Violated, //!< an invariant failed (violation carries details)
    Horizon,  //!< hit the liveness horizon with checking disabled
    Pruned,   //!< suffix already covered (visited-state dedup)
};

struct RunOutcome
{
    RunStatus status = RunStatus::Horizon;
    Violation violation;
    Cycle endCycle = 0;
    std::uint64_t cycles = 0;
};

/**
 * Canonical digest -> largest remaining perturbation budget with which
 * the suffix from that state has been fully explored. A choice-free run
 * reaching a state covered with at-least-equal budget can stop: every
 * continuation (including all branchings) was already walked. Entries
 * are committed only when the recording run *finished* (quiesced,
 * violated, or itself pruned against committed states) so a periodic
 * never-settling suffix cannot vouch for itself. Entries are never
 * erased and budgets only rise.
 */
using VisitedMap = std::unordered_map<std::uint64_t, int>;

/** What one exploring run did, for explore() to commit in frontier
 *  order. */
struct RunLog
{
    /** A cycle with all of the run's choices consumed: the digest the
     *  visited-state check read, and where the run stops if it is
     *  covered. */
    struct Visit
    {
        std::uint64_t digest = 0;
        Cycle cycle = 0;
        std::uint64_t cycles = 0;          //!< cycles stepped before it
        std::size_t decisionsBefore = 0;   //!< decisions logged before it
    };
    /** A Delay/Drop branch: its decision key, and the choice its child
     *  run adds. */
    struct Decision
    {
        std::uint64_t key = 0;
        Choice choice;
    };

    RunOutcome outcome;
    std::vector<Visit> visits;
    std::vector<Decision> decisions;
    /** Raised by the run; rethrown when it is committed. */
    std::exception_ptr error;
};

/** Exploration-wide memory of one explore() call. Only the calling
 *  thread writes it, between batches; workers read `visited`. */
struct ExploreState
{
    VisitedMap visited;
    /** Dedup of enqueued branches: hash of (state digest at decision,
     *  verdicts already issued that cycle, SM identity, action). */
    std::unordered_set<std::uint64_t> decisions;
    std::deque<RunSpec> frontier;
};

/** Fold one hook verdict into the per-cycle decision salt. */
std::uint64_t
foldVerdict(std::uint64_t salt, const SmSend &send, int nth, SmAction a)
{
    Fnv1a f;
    f.u64(salt);
    f.u64(static_cast<std::uint64_t>(send.sm.type));
    f.i64(send.sm.sender);
    f.i64(send.outport);
    f.i64(nth);
    f.u64(static_cast<std::uint64_t>(a));
    return f.value();
}

/** Perturbations @p spec's run may still branch on. */
int
remainingBudget(const ExplorerOptions &opt, const RunSpec &spec)
{
    return std::max(0, opt.budget - static_cast<int>(spec.choices.size()));
}

/**
 * Bounded-liveness horizon for one run. Theorem 1 bounds a recovery at
 * k = m*p + (m-1) spins -- with the scenarios' minimal routing p = 0,
 * so k = m - 1. Every spin requires at most one full priority rotation
 * (the initiator must hold top priority to win probe arbitration), and
 * we grant one rotation of formation/drain slack, one rotation per
 * perturbation (each Delay/Drop can burn at most one timeout round),
 * and one more when a fault disrupts a recovery mid-flight.
 */
Cycle
horizonFor(const Scenario &sc, const SpinManager &mgr, const RunSpec &spec)
{
    const Cycle rot = mgr.rotation().fullRotation();
    const Cycle k = static_cast<Cycle>(sc.loopLen > 0 ? sc.loopLen - 1 : 1);
    Cycle h = sc.formation + (k + 2 + spec.choices.size()) * rot;
    if (spec.faultCycle != kNeverCycle)
        h += rot;
    return h;
}

/**
 * Execute one run. With @p log non-null the run also *explores*: it
 * logs the digest of every cycle with all choices consumed, stopping at
 * the first one @p visited covers, and every Delay/Drop branch within
 * budget. It only reads @p visited. With both null this is a pure
 * deterministic replay.
 */
RunOutcome
runOnce(const Scenario &sc, const RunSpec &spec, const ExplorerOptions &opt,
        const VisitedMap *visited, RunLog *log)
{
    std::unique_ptr<Network> net = sc.build(spec.faultCycle);
    SpinManager *mgr = net->spinManager();
    SPIN_ASSERT(mgr != nullptr, "verify scenarios must use the SPIN scheme");
    mgr->setMutation(spec.mutation);

    const int n = net->numRouters();
    const Cycle horizon = horizonFor(sc, *mgr, spec);
    const int remaining = remainingBudget(opt, spec);

    RunOutcome out;
    out.violation.run = spec;
    const auto flag = [&](const char *kind, std::string msg, Cycle at) {
        if (out.status == RunStatus::Violated)
            return; // first violation wins
        out.status = RunStatus::Violated;
        out.violation.kind = kind;
        out.violation.message = std::move(msg);
        out.violation.cycle = at;
    };

    // ---- SM interceptor ------------------------------------------------
    std::vector<char> consumed(spec.choices.size(), 0);
    Cycle hookCycle = kNeverCycle;
    std::map<std::tuple<int, int, int>, int> nthSeen;
    std::uint64_t cycleDigest = 0; // canonical digest at cycle start
    std::uint64_t cycleSalt = 0;   // verdicts already issued this cycle

    mgr->setSmHook([&](const SmSend &send, Cycle hnow) -> SmAction {
        if (hnow != hookCycle) {
            hookCycle = hnow;
            nthSeen.clear();
            cycleSalt = 0;
        }
        const int nth = nthSeen[{static_cast<int>(send.sm.type),
                                 send.sm.sender, send.outport}]++;
        for (std::size_t i = 0; i < spec.choices.size(); ++i) {
            if (consumed[i] || !spec.choices[i].matches(send, hnow, nth))
                continue;
            consumed[i] = 1;
            cycleSalt =
                foldVerdict(cycleSalt, send, nth, spec.choices[i].action);
            return spec.choices[i].action;
        }
        if (log && remaining > 0) {
            for (const SmAction a : {SmAction::Delay, SmAction::Drop}) {
                Fnv1a key;
                key.u64(cycleDigest);
                key.u64(cycleSalt);
                key.u64(static_cast<std::uint64_t>(send.sm.type));
                key.i64(send.sm.sender);
                key.i64(send.outport);
                key.i64(nth);
                key.u64(static_cast<std::uint64_t>(a));
                log->decisions.push_back(
                    {key.value(), Choice{hnow, send.sm.type, send.sm.sender,
                                         send.outport, nth, a}});
            }
        }
        cycleSalt = foldVerdict(cycleSalt, send, nth, SmAction::Deliver);
        return SmAction::Deliver;
    });

    // ---- main loop -----------------------------------------------------
    std::vector<InitState> prevInit(static_cast<std::size_t>(n));
    std::vector<SpinState> prevPaper(static_cast<std::size_t>(n));

    for (;;) {
        const Cycle now = net->now();
        out.endCycle = now;
        if (now >= horizon) {
            if (opt.checkLiveness) {
                std::ostringstream ss;
                ss << "no quiescence by cycle " << now << " (bound: "
                   << "formation " << sc.formation << " + (k=" << sc.loopLen - 1
                   << " spins + 2 + " << spec.choices.size()
                   << " perturbations) rotations of "
                   << mgr->rotation().fullRotation() << "); "
                   << net->packetsInFlight() << " packets still in flight";
                flag("liveness", ss.str(), now);
            }
            break;
        }

        const bool allConsumed =
            std::find(consumed.begin(), consumed.end(), char{0}) ==
            consumed.end();
        // The digest is read by the visited-state check (all choices
        // consumed) and by decision keys (budget left). A child that
        // replays its prefix with neither skips it.
        if (log && (allConsumed || remaining > 0)) {
            cycleDigest = canonicalDigest(*net, sc.ringSymmetry);
            if (spec.faultCycle != kNeverCycle && spec.faultCycle > now) {
                // A scheduled-but-unfired fault is invisible to the
                // network state; distinguish roots that only differ in
                // when the fault will strike.
                Fnv1a f;
                f.u64(cycleDigest);
                f.u64(spec.faultCycle - now);
                cycleDigest = f.value();
            }
            if (allConsumed) {
                log->visits.push_back({cycleDigest, now, out.cycles,
                                       log->decisions.size()});
                const auto it = visited->find(cycleDigest);
                if (it != visited->end() && it->second >= remaining) {
                    out.status = RunStatus::Pruned;
                    break;
                }
            }
        }

        for (int r = 0; r < n; ++r) {
            const SpinUnit *su = net->router(r).spinUnit();
            prevInit[static_cast<std::size_t>(r)] = su->initState();
            prevPaper[static_cast<std::size_t>(r)] = su->paperState();
        }

        net->step();
        ++out.cycles;

        // 1. FSM transition relation (paper Fig. 4a). Routers that died
        // are exempt: markDead() force-resets their unit.
        for (int r = 0; r < n; ++r) {
            Router &rt = net->router(r);
            if (rt.dead())
                continue;
            const SpinUnit *su = rt.spinUnit();
            const InitState from = prevInit[static_cast<std::size_t>(r)];
            const InitState to = su->initState();
            if (!initTransitionAllowed(from, to)) {
                flag("transition",
                     "router " + std::to_string(r) +
                         ": illegal initiator transition " + toString(from) +
                         " -> " + toString(to),
                     net->now());
            }
            const SpinState pfrom = prevPaper[static_cast<std::size_t>(r)];
            const SpinState pto = su->paperState();
            if (!paperTransitionAllowed(pfrom, pto)) {
                flag("transition",
                     "router " + std::to_string(r) +
                         ": illegal Fig. 4a transition " + toString(pfrom) +
                         " -> " + toString(pto),
                     net->now());
            }
        }

        // 2. Whole-network audit: credits, ownership, frozen-VC
        // bookkeeping, stale victims, flit conservation.
        {
            const AuditReport rep = auditNetwork(*net);
            if (!rep.clean())
                flag("audit", rep.toString(), rep.cycle);
        }

        // 3. At most one committed spin per recovery source: every
        // active victim of one initiator must agree on the spin cycle.
        {
            std::map<RouterId, Cycle> spinAt;
            for (int r = 0; r < n; ++r) {
                Router &rt = net->router(r);
                if (rt.dead())
                    continue;
                const VictimCtx &v = rt.spinUnit()->victim();
                if (!v.active)
                    continue;
                const auto [it, fresh] =
                    spinAt.try_emplace(v.source, v.spinCycle);
                if (!fresh && it->second != v.spinCycle) {
                    flag("spin-uniqueness",
                         "two committed spins for source " +
                             std::to_string(v.source) + ": cycles " +
                             std::to_string(it->second) + " and " +
                             std::to_string(v.spinCycle) + " (victim " +
                             std::to_string(r) + ")",
                         net->now());
                }
            }
        }

        if (out.status == RunStatus::Violated)
            break;

        // 4. Quiescence: everything delivered, no SM anywhere, every
        // surviving FSM back to Off/DetectDeadlock with no victims.
        if (net->packetsInFlight() == 0 && mgr->smQuiescent()) {
            bool settled = true;
            for (int r = 0; r < n && settled; ++r) {
                Router &rt = net->router(r);
                if (rt.dead())
                    continue;
                const SpinUnit *su = rt.spinUnit();
                const InitState s = su->initState();
                settled = !su->victim().active &&
                          (s == InitState::Off ||
                           s == InitState::DetectDeadlock);
            }
            if (settled) {
                const Stats &st = net->stats();
                // Ejected covers CRC-rejected (faultDropped) packets;
                // fault runs may also lose packets into the dead
                // router or refuse them at the source as unroutable.
                const std::uint64_t accounted = st.packetsEjected +
                                                st.packetsLostToFaults +
                                                st.packetsUnroutable;
                if (accounted != static_cast<std::uint64_t>(sc.offered)) {
                    flag("conservation",
                         "offered " + std::to_string(sc.offered) +
                             " packets but ejected " +
                             std::to_string(st.packetsEjected) +
                             " + fault-lost " +
                             std::to_string(st.packetsLostToFaults) +
                             " + unroutable " +
                             std::to_string(st.packetsUnroutable),
                         net->now());
                } else if (spec.faultCycle == kNeverCycle &&
                           st.packetsLostToFaults + st.packetsUnroutable !=
                               0) {
                    flag("conservation",
                         "fault-free run lost " +
                             std::to_string(st.packetsLostToFaults +
                                            st.packetsUnroutable) +
                             " packets",
                         net->now());
                } else {
                    out.status = RunStatus::Quiesced;
                }
                out.endCycle = net->now();
                break;
            }
        }
    }

    mgr->setSmHook(nullptr);
    return out;
}

/**
 * Commit @p log, the log of @p spec's run, to @p ex as if the run had
 * read @p ex's sets as they stand now, and return that run's outcome.
 * The log was taken against a visited set that @p ex's covers, so the
 * run stops at its first visit covered now, never later than it did.
 */
RunOutcome
commit(ExploreState &ex, const RunSpec &spec, int remaining,
       const RunLog &log)
{
    if (log.error)
        std::rethrow_exception(log.error);
    RunOutcome out = log.outcome;
    std::size_t trail = log.visits.size();
    for (std::size_t i = 0; i < log.visits.size(); ++i) {
        const RunLog::Visit &v = log.visits[i];
        const auto it = ex.visited.find(v.digest);
        if (it != ex.visited.end() && it->second >= remaining) {
            out.status = RunStatus::Pruned;
            out.endCycle = v.cycle;
            out.cycles = v.cycles;
            trail = i;
            break;
        }
    }
    SPIN_ASSERT(trail < log.visits.size() ||
                    log.outcome.status != RunStatus::Pruned,
                "run of ", spec.choices.size(),
                " choice(s) was pruned against an older visited set but "
                "not against the live one");

    const std::size_t branches = trail < log.visits.size()
                                     ? log.visits[trail].decisionsBefore
                                     : log.decisions.size();
    for (std::size_t i = 0; i < branches; ++i) {
        const RunLog::Decision &d = log.decisions[i];
        if (ex.decisions.insert(d.key).second) {
            RunSpec child = spec;
            child.choices.push_back(d.choice);
            ex.frontier.push_back(std::move(child));
        }
    }

    // The trail is valid unless the run fell off the horizon unchecked
    // (suffix neither settled nor flagged).
    if (out.status != RunStatus::Horizon) {
        for (std::size_t i = 0; i < trail; ++i) {
            int &slot = ex.visited[log.visits[i].digest];
            slot = std::max(slot, remaining);
        }
    }
    return out;
}

std::vector<RunSpec>
rootsFor(const Scenario &sc, ProtocolMutation mutation)
{
    std::vector<RunSpec> roots;
    RunSpec base;
    base.scenario = sc.name;
    base.mutation = mutation;
    if (sc.faultCycles.empty()) {
        roots.push_back(base);
        return roots;
    }
    for (const Cycle fc : sc.faultCycles) {
        base.faultCycle = fc;
        roots.push_back(base);
    }
    return roots;
}

} // namespace

ExploreResult
explore(const Scenario &sc, const ExplorerOptions &opt)
{
    ExploreResult res;
    ExploreState ex;
    for (RunSpec &root : rootsFor(sc, opt.mutation))
        ex.frontier.push_back(std::move(root));

    // One worker runs a batch of one against the live sets: the
    // one-at-a-time loop, with nothing simulated speculatively. More
    // take 16 runs each per batch, which evens out runs of unequal
    // length at the price of runs that a later commit cuts short.
    StepExecutor pool(std::clamp(opt.jobs, 1, kMaxThreads));
    const std::size_t maxBatch =
        pool.threads() == 1 ? 1
                            : 16 * static_cast<std::size_t>(pool.threads());
    // Checked where the one-at-a-time loop checks them: before each run.
    const auto capped = [&] {
        return (opt.maxRuns != 0 && res.runs >= opt.maxRuns) ||
               res.violations.size() >= opt.maxViolations;
    };
    std::vector<RunSpec> batch;
    std::vector<RunLog> logs;
    while (!ex.frontier.empty()) {
        if (capped()) {
            res.exhausted = false;
            break;
        }
        std::size_t n = std::min(ex.frontier.size(), maxBatch);
        if (opt.maxRuns != 0)
            n = std::min<std::uint64_t>(n, opt.maxRuns - res.runs);
        const auto taken =
            ex.frontier.begin() + static_cast<std::ptrdiff_t>(n);
        batch.assign(std::make_move_iterator(ex.frontier.begin()),
                     std::make_move_iterator(taken));
        ex.frontier.erase(ex.frontier.begin(), taken);
        logs.assign(n, RunLog{});

        std::atomic<std::size_t> next{0};
        pool.run([&](int) {
            for (std::size_t i = next++; i < n; i = next++) {
                try {
                    logs[i].outcome =
                        runOnce(sc, batch[i], opt, &ex.visited, &logs[i]);
                } catch (...) {
                    logs[i].error = std::current_exception();
                }
            }
        });

        for (std::size_t i = 0; i < n; ++i) {
            if (capped()) {
                res.exhausted = false;
                break;
            }
            const RunOutcome o = commit(ex, batch[i],
                                        remainingBudget(opt, batch[i]),
                                        logs[i]);
            ++res.runs;
            res.cyclesSimulated += o.cycles;
            if (o.status == RunStatus::Pruned)
                ++res.prunedRuns;
            else if (o.status == RunStatus::Violated)
                res.violations.push_back(o.violation);
        }
    }
    res.statesVisited = ex.visited.size();
    res.choicePoints = ex.decisions.size();
    return res;
}

ReplayResult
replay(const Scenario &sc, const RunSpec &spec)
{
    ExplorerOptions opt;
    opt.budget = static_cast<int>(spec.choices.size());
    const RunOutcome o = runOnce(sc, spec, opt, nullptr, nullptr);
    ReplayResult r;
    r.violated = o.status == RunStatus::Violated;
    if (r.violated)
        r.violation = o.violation;
    r.quiescent = o.status == RunStatus::Quiesced;
    r.endCycle = o.endCycle;
    return r;
}

Violation
minimize(const Scenario &sc, const Violation &v)
{
    Violation best = v;
    bool improved = true;
    while (improved && !best.run.choices.empty()) {
        improved = false;
        for (std::size_t i = 0; i < best.run.choices.size(); ++i) {
            RunSpec trial = best.run;
            trial.choices.erase(trial.choices.begin() +
                                static_cast<std::ptrdiff_t>(i));
            const ReplayResult r = replay(sc, trial);
            if (r.violated && r.violation.kind == best.kind) {
                best = r.violation;
                improved = true;
                break;
            }
        }
    }
    return best;
}

} // namespace spin::verify
