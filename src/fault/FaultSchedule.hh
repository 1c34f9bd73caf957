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

/** Fault event kinds (JSON "kind" values in docs/FAULTS.md). What a
 *  kind hits and does are the target and effect columns of its row in
 *  kFaultKindNames. */
enum class FaultKind : std::uint8_t
{
    LinkFail,
    RouterFail,
    Corrupt,
    Drop,
    RandomLinks,
    LinkOutage,
    RouterOutage,
    Flaky,
    FlakyLinks,
};

/** Which links a fault kind hits, named by its target JSON fields. */
enum class FaultTarget : std::uint8_t
{
    Link,         //!< "src", "dst": every link between the pair, both
                  //!< directions, parallel links included
    DirectedLink, //!< "src", "dst": the first src->dst link, else the
                  //!< first dst->src link
    Router,       //!< "router": every link touching the router
    SeedPicked,   //!< "count" >= 1, "seed": a macro; concretize() draws
                  //!< count link pairs from the seed
};

/** What a fault kind does to the links it hits, with its effect JSON
 *  fields. */
enum class FaultEffect : std::uint8_t
{
    Fail,       //!< permanent: the links die (and a target router)
    CorruptArm, //!< the next flit entering the link is corrupted
    DropArm,    //!< the next packet entering the link is discarded by
                //!< the destination NIC on ejection
    Outage,     //!< "duration" >= 1: every flit entering the link in
                //!< [cycle, cycle + duration) is corrupted
    Flaky,      //!< "window" >= 1, "prob" in (0, 1], "seed" (optional
                //!< on a link target): each flit entering the link in
                //!< [cycle, cycle + window) is corrupted with
                //!< probability prob
};

/** A fault kind's JSON "kind" value, target, effect, and the trace
 *  event its application records (none for a macro, which concretize()
 *  expands before anything applies). */
struct FaultKindName
{
    FaultKind value;
    const char *name;
    FaultTarget target;
    FaultEffect effect;
    const char *event;
};

inline constexpr FaultKindName kFaultKindNames[] = {
    {FaultKind::LinkFail, "link", FaultTarget::Link, FaultEffect::Fail,
     "link_fail"},
    {FaultKind::RouterFail, "router", FaultTarget::Router,
     FaultEffect::Fail, "router_fail"},
    {FaultKind::Corrupt, "corrupt", FaultTarget::DirectedLink,
     FaultEffect::CorruptArm, "corrupt_arm"},
    {FaultKind::Drop, "drop", FaultTarget::DirectedLink,
     FaultEffect::DropArm, "drop_arm"},
    {FaultKind::RandomLinks, "random-links", FaultTarget::SeedPicked,
     FaultEffect::Fail, nullptr},
    {FaultKind::LinkOutage, "link-outage", FaultTarget::Link,
     FaultEffect::Outage, "link_outage"},
    {FaultKind::RouterOutage, "router-outage", FaultTarget::Router,
     FaultEffect::Outage, "router_outage"},
    {FaultKind::Flaky, "flaky", FaultTarget::Link, FaultEffect::Flaky,
     "flaky_arm"},
    {FaultKind::FlakyLinks, "flaky-links", FaultTarget::SeedPicked,
     FaultEffect::Flaky, nullptr},
};
constexpr const auto &enumNames(FaultKind) { return kFaultKindNames; }

struct FaultEvent;

/** Human-readable one-liner, e.g. "link 5<->6 failed @ cycle 1000". */
std::string describe(const FaultEvent &e);

/** One scheduled fault. Fields its kind's target and effect do not
 *  name stay at sentinels. */
struct FaultEvent
{
    Cycle cycle = 0;
    FaultKind kind = FaultKind::LinkFail;
    /** Link endpoints (link and directed-link targets). */
    RouterId src = kInvalidId;
    RouterId dst = kInvalidId;
    /** Target router (router targets). */
    RouterId router = kInvalidId;
    /** Number of links to pick (seed-picked targets). */
    int count = 0;
    /** Selection seed (seed-picked targets); also the Bernoulli stream
     *  seed of the flaky effect. */
    std::uint64_t seed = 0;
    /** Outage length in cycles (outage effect). */
    Cycle duration = 0;
    /** Flaky window length in cycles (flaky effect). */
    Cycle window = 0;
    /** Per-flit corruption probability in (0, 1] (flaky effect). */
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
     * Expand macros into concrete events against @p topo: a seed-picked
     * target becomes one event per drawn link pair, of the link-target
     * kind with the macro's effect ("random-links" into "link",
     * "flaky-links" into "flaky" with per-link seeds); other events
     * pass through. The result is stably sorted by cycle and fully
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
