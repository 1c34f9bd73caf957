/**
 * @file
 * SPIN special messages (SMs): probe, move, probe_move and kill_move
 * (paper Sec. IV). SMs travel buffered-network-free on the regular
 * links at higher priority than flits; on contention for a link the
 * strict class order below picks a winner and the rest are dropped --
 * every initiator FSM is robust to loss through timeouts.
 */

#ifndef SPINNOC_CORE_SPECIALMSG_HH
#define SPINNOC_CORE_SPECIALMSG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/EnumNames.hh"
#include "common/Types.hh"

namespace spin
{

/** Special message classes. */
enum class SmType : std::uint8_t
{
    Probe,     //!< trace a suspected deadlock dependency chain
    Move,      //!< commit the loop to a spin at an embedded cycle
    ProbeMove, //!< post-spin re-check + re-freeze in one traversal
    KillMove,  //!< cancel a committed spin, unfreeze the loop
};

/** SM class names in traces and counterexamples. */
inline constexpr EnumName<SmType> kSmTypeNames[] = {
    {SmType::Probe, "probe"},
    {SmType::Move, "move"},
    {SmType::ProbeMove, "probe_move"},
    {SmType::KillMove, "kill_move"},
};
constexpr const auto &enumNames(SmType) { return kSmTypeNames; }

/**
 * Link-contention priority (paper Sec. IV-C1):
 * probe_move > move = kill_move > probe (> flits, implicitly).
 */
constexpr int
classPriority(SmType t)
{
    switch (t) {
      case SmType::ProbeMove: return 3;
      case SmType::Move:      return 2;
      case SmType::KillMove:  return 2;
      case SmType::Probe:     return 1;
    }
    return 0;
}

/**
 * One special message in flight.
 *
 * The path is the sequence of output ports around the dependency loop,
 * starting with the initiator's own output port. A probe appends the
 * forwarding port at every router it traverses; move / probe_move /
 * kill_move carry the complete latched path and consume it via pathIdx
 * (the paper strips the head entry instead -- same thing, cheaper here).
 */
struct SpecialMsg
{
    SmType type = SmType::Probe;
    /** Recovery-initiating router. */
    RouterId sender = kInvalidId;
    /** Message class of the traced chain: buffer dependencies never
     *  cross virtual networks, so the whole loop shares one vnet. */
    VnetId vnet = 0;
    /** Cycle the SM entered its first link (loop latency math). */
    Cycle sendCycle = 0;
    /** Output-port sequence around the loop. */
    std::vector<PortId> path;
    /** Next unconsumed path entry (move/probe_move/kill_move). */
    std::uint32_t pathIdx = 0;
    /** Committed global spin cycle (move/probe_move). */
    Cycle spinCycle = 0;

    std::string toString() const;
};

/** An SM about to enter a link: contends for (from, outport) this cycle. */
struct SmSend
{
    SpecialMsg sm;
    RouterId from = kInvalidId;
    PortId outport = kInvalidId;
};

} // namespace spin

#endif // SPINNOC_CORE_SPECIALMSG_HH
