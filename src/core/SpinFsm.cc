#include "core/SpinFsm.hh"

namespace spin
{

std::string
toString(InitState s)
{
    switch (s) {
      case InitState::Off:            return "Off";
      case InitState::DetectDeadlock: return "DetectDeadlock";
      case InitState::MoveWait:       return "MoveWait";
      case InitState::FwdProgress:    return "FwdProgress";
      case InitState::ProbeMoveWait:  return "ProbeMoveWait";
      case InitState::KillMoveWait:   return "KillMoveWait";
    }
    return "?";
}

std::string
toString(SpinState s)
{
    switch (s) {
      case SpinState::Off:             return "S_OFF";
      case SpinState::DetectDeadlock:  return "S_DD";
      case SpinState::Move:            return "S_Move";
      case SpinState::Frozen:          return "S_Frozen";
      case SpinState::ForwardProgress: return "S_Forward_Progress";
      case SpinState::ProbeMove:       return "S_Probe_Move";
      case SpinState::KillMove:        return "S_kill_move";
    }
    return "?";
}

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
FsmSnapshot::operator==(const FsmSnapshot &o) const
{
    return state == o.state && deadlineIn == o.deadlineIn &&
           ptrInport == o.ptrInport && ptrVc == o.ptrVc &&
           victimActive == o.victimActive &&
           victimSource == o.victimSource && spinIn == o.spinIn &&
           loopValid == o.loopValid && loopPath == o.loopPath &&
           loopLatency == o.loopLatency && loopVnet == o.loopVnet &&
           probeAttempt == o.probeAttempt && frozen == o.frozen;
}

SpinState
FsmSnapshot::paperState(RouterId self) const
{
    return spin::paperState(state, victimActive && victimSource != self);
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
        for (int i = 0; i <= static_cast<int>(InitState::KillMoveWait);
             ++i) {
            const auto s = static_cast<InitState>(i);
            if (paperState(s, false) == p)
                return s;
        }
        return InitState::Off;
    };
    return initTransitionAllowed(unmap(from), unmap(to));
}

} // namespace spin
