/**
 * @file
 * Network-level SPIN coordinator.
 *
 * The recovery itself is fully distributed -- every decision is taken in
 * a per-router SpinUnit from locally visible state. This manager models
 * the shared physical substrate those units communicate over: bufferless
 * SM traversal on the regular links with strict-priority contention
 * drops, and the synchronized rotation that all frozen routers execute
 * in the committed spin cycle. It also implements the defensive
 * atomic-rotation fixpoint described in DESIGN.md Sec. 1.3.
 */

#ifndef SPINNOC_CORE_SPINMANAGER_HH
#define SPINNOC_CORE_SPINMANAGER_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/EnumNames.hh"
#include "common/Types.hh"
#include "core/RotatingPriority.hh"
#include "core/SpecialMsg.hh"
#include "core/SpinUnit.hh"
#include "sim/DelayLine.hh"

namespace spin
{

class Network;

/**
 * Model-checker verdict for one SM about to contend for its link. The
 * checker's interceptor (see setSmHook) perturbs SM schedules through
 * these: Delay re-queues the send for the next cycle (models wire/
 * arbitration jitter), Drop loses it outright (models contention or
 * fault loss on paths the built-in contention rule would not pick).
 */
enum class SmAction : std::uint8_t
{
    Deliver,
    Delay,
    Drop,
};

/** Action names in counterexample traces. */
inline constexpr EnumName<SmAction> kSmActionNames[] = {
    {SmAction::Deliver, "deliver"},
    {SmAction::Delay, "delay"},
    {SmAction::Drop, "drop"},
};
constexpr const auto &enumNames(SmAction) { return kSmActionNames; }

/**
 * Longest probe path, in hops: min(transit VCs, 4 * routers). Every hop
 * of an elementary wait-for cycle occupies a distinct transit
 * (non-local) input VC, so the transit-VC count bounds any loop; folded
 * loops revisit routers, so router count alone is not a bound. The 4N
 * term keeps many-VC networks from letting probes wander
 * quasi-unboundedly. spin_lint's probe budget is the same cap.
 */
int probeHopCap(const Network &net);

/** See file comment. */
class SpinManager
{
  public:
    explicit SpinManager(Network &net);

    Network &network() { return net_; }
    SpinUnit &unit(RouterId r) { return *units_[r]; }
    const SpinUnit &unit(RouterId r) const { return *units_[r]; }

    /// @name Per-cycle phases (called by Network::step)
    /// @{
    /** Deliver SM arrivals, process them, resolve link contention. */
    void smPhase(Cycle now);
    /** Execute committed rotations whose spin cycle is @p now. */
    void spinPhase(Cycle now);
    /** Run every unit's counter FSM. */
    void fsmTick(Cycle now);
    /// @}

    /** Schedule @p send to contend for its link at cycle @p when. */
    void scheduleSend(Cycle when, SmSend send);

    /** Special messages currently traversing links (metrics gauge). */
    int smsInFlight() const { return smsInFlight_; }

    /// @name Model-checker hooks
    /// @{
    /**
     * Interceptor consulted for every SM just before link contention;
     * its verdict (see SmAction) lets the model checker explore launch
     * orderings the deterministic simulator would never produce. Null
     * (the default) means every SM is delivered normally.
     */
    using SmHook = std::function<SmAction(const SmSend &, Cycle)>;
    void setSmHook(SmHook hook) { smHook_ = std::move(hook); }

    /** Deliberate protocol defect under test (spin_model --mutate). */
    void setMutation(ProtocolMutation m) { mutation_ = m; }
    ProtocolMutation mutation() const { return mutation_; }

    /** Visit every SM on a wire as fn(link, arrival cycle, sm): links
     *  in index order, each link's SMs in arrival order. The state
     *  digest reads SMs in place through this and scheduled(). */
    template <typename F>
    void
    forEachSmInFlight(F &&fn) const
    {
        for (int li = 0; li < static_cast<int>(smLines_.size()); ++li) {
            smLines_[li].forEach([&](Cycle arrival, const SpecialMsg &sm) {
                fn(li, arrival, sm);
            });
        }
    }
    /** FSM-scheduled emissions as (cycle, send), in scheduling order. */
    const std::vector<std::pair<Cycle, SmSend>> &
    scheduled() const
    {
        return scheduled_;
    }
    /** True when no SM is in flight or scheduled anywhere. */
    bool smQuiescent() const
    {
        return smsInFlight_ == 0 && scheduled_.empty();
    }
    /// @}

    /// @name Parameters
    /// @{
    Cycle tDd() const { return tDd_; }
    int maxProbeHops() const { return maxProbeHops_; }
    int priorityOf(RouterId r, Cycle now) const
    {
        return prio_.priorityOf(r, now);
    }
    const RotatingPriority &rotation() const { return prio_; }
    /// @}

  private:
    Network &net_;
    RotatingPriority prio_;
    Cycle tDd_;
    int maxProbeHops_;

    /** Units are owned by their routers; borrowed here for iteration. */
    std::vector<SpinUnit *> units_;
    /** Per-link SM pipelines, indexed like Network's link array. */
    std::vector<DelayLine<SpecialMsg>> smLines_;
    /** SMs currently inside smLines_; lets smPhase() skip the
     *  per-link scan in the (overwhelmingly common) no-SM cycles. */
    int smsInFlight_ = 0;
    /** FSM-scheduled future emissions. */
    std::vector<std::pair<Cycle, SmSend>> scheduled_;
    SmHook smHook_;
    ProtocolMutation mutation_ = ProtocolMutation::None;

    /** Resolve one cycle's link contention and launch the winners. */
    void launch(std::vector<SmSend> &sends, Cycle now);
};

} // namespace spin

#endif // SPINNOC_CORE_SPINMANAGER_HH
