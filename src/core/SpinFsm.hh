/**
 * @file
 * SPIN counter-FSM state definitions (paper Fig. 4a).
 *
 * The paper draws one seven-state FSM per router. A router can, however,
 * simultaneously play two roles (paper Sec. IV-C2, Case II of shared
 * loops: router B is frozen by H's move *and* times out its own move):
 * it can be the *initiator* of its own recovery, and the *victim*
 * (frozen member) of someone else's. This implementation therefore
 * splits the FSM into an initiator context and a victim context; the
 * paper's seven states are the observable union (see paperState()).
 *
 *   paper state            initiator ctx        victim ctx
 *   ---------------------  -------------------  -----------
 *   S_OFF                  Off                  inactive
 *   S_DD                   DetectDeadlock       inactive
 *   S_Move                 MoveWait             --
 *   S_Frozen               (any)                active (not own spin)
 *   S_Forward_Progress     FwdProgress          active, own source
 *   S_Probe_Move           ProbeMoveWait        --
 *   S_kill_move            KillMoveWait         --
 */

#ifndef SPINNOC_CORE_SPINFSM_HH
#define SPINNOC_CORE_SPINFSM_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/EnumNames.hh"
#include "common/Types.hh"

namespace spin
{

/** Initiator-side FSM states. */
enum class InitState : std::uint8_t
{
    Off,            //!< no traffic to watch
    DetectDeadlock, //!< counting toward t_DD on the pointed VC
    MoveWait,       //!< probe returned; waiting for the move to return
    FwdProgress,    //!< move returned; waiting for the spin cycle
    ProbeMoveWait,  //!< spun; probe_move re-check in flight
    KillMoveWait,   //!< cancelling; kill_move in flight
};

/** The paper's seven observable FSM states. */
enum class SpinState : std::uint8_t
{
    Off,
    DetectDeadlock,
    Move,
    Frozen,
    ForwardProgress,
    ProbeMove,
    KillMove,
};

std::string toString(InitState s);
std::string toString(SpinState s);

/**
 * The paper's seven-state view (see the table in the file comment):
 * S_Frozen while a recovery initiated elsewhere holds this router
 * frozen (@p frozenForOther), otherwise the state initiator state @p s
 * shows.
 */
SpinState paperState(InitState s, bool frozenForOther);

/**
 * Victim context: this router has frozen VC(s) on behalf of a recovery
 * whose initiator is @c source (possibly itself).
 */
struct VictimCtx
{
    bool active = false;
    RouterId source = kInvalidId;
    Cycle spinCycle = kNeverCycle;
};

/**
 * Complete save/restore image of one SpinUnit's recovery state: both
 * FSM contexts, the detection pointer, the latched loop and the frozen
 * entries. Absolute cycles (deadline, committed spin cycle) are stored
 * *relative to the capture cycle* so snapshots of behaviorally
 * identical states taken at different times compare equal -- the
 * property the model checker's visited-state dedup relies on.
 */
struct FsmSnapshot
{
    /** Relative-time sentinel mirroring kNeverCycle. */
    static constexpr std::int64_t kNever =
        std::numeric_limits<std::int64_t>::max();

    InitState state = InitState::Off;
    /** deadline - now; kNever when no timer is armed. */
    std::int64_t deadlineIn = kNever;
    PortId ptrInport = kInvalidId;
    VcId ptrVc = kInvalidId;

    bool victimActive = false;
    RouterId victimSource = kInvalidId;
    /** victim spinCycle - now; kNever when inactive. */
    std::int64_t spinIn = kNever;

    bool loopValid = false;
    std::vector<PortId> loopPath;
    Cycle loopLatency = 0;
    VnetId loopVnet = 0;
    std::uint64_t probeAttempt = 0;

    /** Frozen-VC bookkeeping (mirrors SpinUnit::FrozenEntry). */
    struct Frozen
    {
        PortId inport = kInvalidId;
        VcId vc = kInvalidId;
        PortId outport = kInvalidId;

        bool
        operator==(const Frozen &o) const
        {
            return inport == o.inport && vc == o.vc &&
                   outport == o.outport;
        }
    };
    std::vector<Frozen> frozen;

    bool operator==(const FsmSnapshot &o) const;
    bool operator!=(const FsmSnapshot &o) const { return !(*this == o); }

    /** The paper's seven-state view of this snapshot, taken at router
     *  @p self. */
    SpinState paperState(RouterId self) const;
};

/**
 * Initiator-context transition relation (paper Fig. 4a projected onto
 * the initiator FSM; see the table in the file comment). The model
 * checker validates every per-cycle state change against this set;
 * self-loops are always allowed.
 */
bool initTransitionAllowed(InitState from, InitState to);

/**
 * Seven-state (paper-view) transition relation. S_Frozen masks the
 * initiator context, so any transition entering or leaving S_Frozen is
 * allowed here; the victim-context rules are checked separately.
 */
bool paperTransitionAllowed(SpinState from, SpinState to);

/**
 * Deliberate protocol mutations for the model checker's
 * catch-the-injected-bug validation (spin_model --mutate). `None` in
 * every real configuration; the others each break one handshake step
 * the checker must flag with a replayable counterexample.
 */
enum class ProtocolMutation : std::uint8_t
{
    None,
    /** sendKill() transitions but never launches the kill_move SM. */
    SkipKillMove,
    /** The rotation-safety fixpoint cancels entries without unfreezing
     *  them (and drops the cancellation notification). */
    SkipCancelUnfreeze,
};

/** spin_model --mutate values, also written into counterexamples. */
inline constexpr EnumName<ProtocolMutation> kMutationNames[] = {
    {ProtocolMutation::None, "none"},
    {ProtocolMutation::SkipKillMove, "skip-kill-move"},
    {ProtocolMutation::SkipCancelUnfreeze, "skip-cancel-unfreeze"},
};
constexpr const auto &enumNames(ProtocolMutation) { return kMutationNames; }

} // namespace spin

#endif // SPINNOC_CORE_SPINFSM_HH
