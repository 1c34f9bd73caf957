/**
 * @file
 * Declarative fault schedule: which links and routers fail, and when.
 *
 * A schedule is a JSON document (schema "spin-faults/v2", reference in
 * docs/FAULTS.md) listing timed events. Permanent events (link and
 * router failures) degrade the topology; transient events (corrupt,
 * drop, time-bounded outages, flaky links) tag individual flits in
 * flight. Schedules are deterministic: the "random-links" and
 * "flaky-links" macros expand into concrete events from their own
 * seeds, so the same spec + seed produces bit-identical runs for any
 * worker count -- the same contract campaign cells obey.
 */

#ifndef SPINNOC_FAULT_FAULTSCHEDULE_HH
#define SPINNOC_FAULT_FAULTSCHEDULE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/EnumNames.hh"
#include "common/Types.hh"
#include "obs/Json.hh"
#include "topology/Topology.hh"

namespace spin::fault
{

/** Fault event kinds (JSON "kind" values in docs/FAULTS.md). */
enum class FaultKind : std::uint8_t
{
    LinkFail,     //!< permanent: both directions between src and dst die
    RouterFail,   //!< permanent: the router and all its links die
    Corrupt,      //!< transient: tag the next flit on (src, dst) corrupted
    Drop,         //!< transient: the next packet on (src, dst) is
                  //!< discarded by the destination NIC on ejection
    RandomLinks,  //!< macro: seed-derived set of LinkFail events
    LinkOutage,   //!< transient: every flit crossing (src, dst) in
                  //!< [cycle, cycle + duration) is corrupted
    RouterOutage, //!< transient: LinkOutage on every link of the router
    Flaky,        //!< transient: per-flit corruption probability on
                  //!< (src, dst) over [cycle, cycle + window)
    FlakyLinks,   //!< macro: seed-derived set of Flaky events
};

/** A fault kind's JSON "kind" value and the trace event its
 *  application records (the macros expand before they apply). */
struct FaultKindName
{
    FaultKind value;
    const char *name;
    const char *event;
};

inline constexpr FaultKindName kFaultKindNames[] = {
    {FaultKind::LinkFail, "link", "link_fail"},
    {FaultKind::RouterFail, "router", "router_fail"},
    {FaultKind::Corrupt, "corrupt", "corrupt_arm"},
    {FaultKind::Drop, "drop", "drop_arm"},
    {FaultKind::RandomLinks, "random-links", "random_links"},
    {FaultKind::LinkOutage, "link-outage", "link_outage"},
    {FaultKind::RouterOutage, "router-outage", "router_outage"},
    {FaultKind::Flaky, "flaky", "flaky_arm"},
    {FaultKind::FlakyLinks, "flaky-links", "flaky_links"},
};
constexpr const auto &enumNames(FaultKind) { return kFaultKindNames; }

struct FaultEvent;

/** Human-readable one-liner, e.g. "link 5<->6 failed @ cycle 1000". */
std::string describe(const FaultEvent &e);

/** One scheduled fault. Fields that do not apply stay at sentinels. */
struct FaultEvent
{
    Cycle cycle = 0;
    FaultKind kind = FaultKind::LinkFail;
    /** Link endpoints (LinkFail / Corrupt / Drop / LinkOutage / Flaky). */
    RouterId src = kInvalidId;
    RouterId dst = kInvalidId;
    /** Failing router (RouterFail / RouterOutage). */
    RouterId router = kInvalidId;
    /** Number of links to pick (RandomLinks / FlakyLinks). */
    int count = 0;
    /** Selection seed (RandomLinks / FlakyLinks); also the Bernoulli
     *  stream seed of Flaky events. */
    std::uint64_t seed = 0;
    /** Outage length in cycles (LinkOutage / RouterOutage). */
    Cycle duration = 0;
    /** Flaky window length in cycles (Flaky / FlakyLinks). */
    Cycle window = 0;
    /** Per-flit corruption probability in (0, 1] (Flaky / FlakyLinks). */
    double prob = 0.0;

    obs::JsonValue toJson() const;
};

/** See file comment. */
struct FaultSchedule
{
    static constexpr const char *kSchema = "spin-faults/v2";

    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Parse a schedule document; false + @p err on malformed input. */
    static bool fromJson(const obs::JsonValue &doc, FaultSchedule &out,
                         std::string &err);
    /** Parse a schedule file (JSON). */
    static bool fromFile(const std::string &path, FaultSchedule &out,
                         std::string &err);
    /** Echo of the schedule (round-trips through fromJson). */
    obs::JsonValue toJson() const;

    /** Check every event against @p topo. Empty string when ok. */
    std::string validate(const Topology &topo) const;

    /**
     * Expand macros into concrete events against @p topo:
     * "random-links" becomes its seed-derived LinkFail events and
     * "flaky-links" its seed-derived Flaky events; other events pass
     * through. The result is stably sorted by cycle and fully
     * deterministic.
     */
    std::vector<FaultEvent> concretize(const Topology &topo) const;

    /** Schedule failing @p count seed-picked links at @p cycle. */
    static FaultSchedule randomLinkFailures(int count, std::uint64_t seed,
                                            Cycle cycle);
};

/**
 * The surviving topology after the permanent events in @p concrete:
 * every link between a failed pair (both directions, parallel links
 * included) and every link of a failed router is removed; routers and
 * NIC attachments keep their ids. Transient events (outages, flaky
 * links, one-shot arms) never remove anything here. The result is
 * finalized with finalizePartial(), so distance() returns -1 for
 * disconnected pairs instead of failing the strong-connectivity check.
 */
std::shared_ptr<const Topology>
degradedTopology(const Topology &base,
                 const std::vector<FaultEvent> &concrete);

} // namespace spin::fault

#endif // SPINNOC_FAULT_FAULTSCHEDULE_HH
