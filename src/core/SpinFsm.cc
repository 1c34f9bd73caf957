#include "core/SpinFsm.hh"

namespace spin
{

SpinState
paperState(InitState s, bool frozenForOther)
{
    if (frozenForOther)
        return SpinState::Frozen;
    switch (s) {
      case InitState::Off:            return SpinState::Off;
      case InitState::DetectDeadlock: return SpinState::DetectDeadlock;
      case InitState::MoveWait:       return SpinState::Move;
      case InitState::FwdProgress:    return SpinState::ForwardProgress;
      case InitState::ProbeMoveWait:  return SpinState::ProbeMove;
      case InitState::KillMoveWait:   return SpinState::KillMove;
    }
    return SpinState::Off;
}

bool
initTransitionAllowed(InitState from, InitState to)
{
    if (from == to)
        return true;
    switch (from) {
      case InitState::Off:
        // onFlitArrival / resetDetection arm the detection counter.
        return to == InitState::DetectDeadlock;
      case InitState::DetectDeadlock:
        // Probe returned -> MoveWait; traffic drained -> Off.
        return to == InitState::MoveWait || to == InitState::Off;
      case InitState::MoveWait:
        // Move returned + freeze -> FwdProgress; timeout or vanished
        // dependency -> kill_move.
        return to == InitState::FwdProgress ||
               to == InitState::KillMoveWait;
      case InitState::FwdProgress:
        // Spin executed -> probe_move re-check; spin cancelled by the
        // safety fixpoint -> restart (or stop) detection.
        return to == InitState::ProbeMoveWait ||
               to == InitState::DetectDeadlock || to == InitState::Off;
      case InitState::ProbeMoveWait:
        // Re-check confirmed the loop -> FwdProgress again; dropped
        // (loop resolved) -> kill_move.
        return to == InitState::FwdProgress ||
               to == InitState::KillMoveWait;
      case InitState::KillMoveWait:
        // Kill returned or timed out -> restart (or stop) detection.
        return to == InitState::DetectDeadlock || to == InitState::Off;
    }
    return false;
}

bool
paperTransitionAllowed(SpinState from, SpinState to)
{
    // S_Frozen masks the initiator context; entering/leaving it is
    // governed by the victim rules, not this relation.
    if (from == to || from == SpinState::Frozen ||
        to == SpinState::Frozen) {
        return true;
    }
    // Away from S_Frozen, paperState() is one-to-one: invert it by
    // search.
    const auto unmap = [](SpinState p) {
        for (const auto &row : enumTable<InitState>()) {
            if (paperState(row.value, false) == p)
                return row.value;
        }
        return InitState::Off;
    };
    return initTransitionAllowed(unmap(from), unmap(to));
}

} // namespace spin
