/**
 * @file
 * The trace event record and its category bitmask. Events are plain
 * PODs built at the instrumentation site and handed to the Tracer; all
 * strings are static literals so recording never allocates.
 */

#ifndef SPINNOC_OBS_TRACEEVENT_HH
#define SPINNOC_OBS_TRACEEVENT_HH

#include <cstdint>

#include "common/Types.hh"

namespace spin::obs
{

/// @name Trace categories (one bit each)
/// @{
inline constexpr std::uint32_t kCatFlit = 1u << 0;     //!< flit lifecycle
inline constexpr std::uint32_t kCatSpin = 1u << 1;     //!< SPIN protocol
inline constexpr std::uint32_t kCatLink = 1u << 2;     //!< link traversal
inline constexpr std::uint32_t kCatForensic = 1u << 4; //!< loop snapshots
inline constexpr std::uint32_t kCatFault = 1u << 5;    //!< fault injection
/// @}

/** Short lowercase name of the lowest set category bit (for sinks). */
const char *categoryName(std::uint32_t cat);

/**
 * One recorded event. Fields that do not apply stay at their
 * sentinels and are omitted by the sinks.
 */
struct TraceEvent
{
    Cycle cycle = 0;
    std::uint32_t category = kCatFlit;
    /** Static event name, e.g. "inject", "probe_drop". */
    const char *name = "";
    RouterId router = kInvalidId;
    PacketId packet = 0;
    PortId port = kInvalidId;
    VcId vc = kInvalidId;
    /** Event-specific extras (e.g. outport, downstream VC, hop count). */
    std::int64_t arg0 = -1;
    std::int64_t arg1 = -1;
    /** Static detail string (e.g. a probe drop reason), or nullptr. */
    const char *detail = nullptr;
};

} // namespace spin::obs

#endif // SPINNOC_OBS_TRACEEVENT_HH
