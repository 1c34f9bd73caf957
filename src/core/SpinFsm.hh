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

/** Initiator state names in counterexample messages. */
inline constexpr EnumName<InitState> kInitStateNames[] = {
    {InitState::Off, "Off"},
    {InitState::DetectDeadlock, "DetectDeadlock"},
    {InitState::MoveWait, "MoveWait"},
    {InitState::FwdProgress, "FwdProgress"},
    {InitState::ProbeMoveWait, "ProbeMoveWait"},
    {InitState::KillMoveWait, "KillMoveWait"},
};
constexpr const auto &enumNames(InitState) { return kInitStateNames; }

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

/** The paper's state names (Fig. 4a) in counterexample messages. */
inline constexpr EnumName<SpinState> kSpinStateNames[] = {
    {SpinState::Off, "S_OFF"},
    {SpinState::DetectDeadlock, "S_DD"},
    {SpinState::Move, "S_Move"},
    {SpinState::Frozen, "S_Frozen"},
    {SpinState::ForwardProgress, "S_Forward_Progress"},
    {SpinState::ProbeMove, "S_Probe_Move"},
    {SpinState::KillMove, "S_kill_move"},
};
constexpr const auto &enumNames(SpinState) { return kSpinStateNames; }

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
