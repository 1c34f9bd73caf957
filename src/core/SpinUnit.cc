#include "core/SpinUnit.hh"

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "network/Network.hh"
#include "obs/Forensics.hh"
#include "obs/Tracer.hh"
#include "router/Router.hh"

namespace spin
{

SpinUnit::SpinUnit(SpinManager &mgr, Router &router)
    : mgr_(mgr), router_(router), probeMgr_(*this), moveMgr_(*this)
{
}

// ---------------------------------------------------------------------
// Detection pointer management
// ---------------------------------------------------------------------

bool
SpinUnit::qualifies(PortId inport, VcId vc) const
{
    const InputUnit &iu = router_.input(inport);
    if (iu.fromNic())
        return false; // local buffers can never join an in-network cycle
    const VirtualChannel &v = iu.vc(vc);
    if (!v.active())
        return false;
    // Packets waiting for ejection cannot be part of a cyclic chain.
    if (router_.isEjectRequest(inport, vc))
        return false;
    return true;
}



bool
SpinUnit::anyQualifies() const
{
    const int vcs = router_.network().config().totalVcs();
    for (PortId p = 0; p < router_.radix(); ++p) {
        for (VcId v = 0; v < vcs; ++v) {
            if (qualifies(p, v))
                return true;
        }
    }
    return false;
}

void
SpinUnit::resetDetection(Cycle now)
{
    ptrInport_ = kInvalidId;
    ptrVc_ = kInvalidId;
    if (anyQualifies()) {
        state_ = InitState::DetectDeadlock;
        deadline_ = now + mgr_.tDd();
    } else {
        state_ = InitState::Off;
        deadline_ = kNeverCycle;
    }
}

void
SpinUnit::onFlitArrival(PortId inport, VcId vc)
{
    if (state_ == InitState::Off && qualifies(inport, vc)) {
        state_ = InitState::DetectDeadlock;
        deadline_ = router_.network().now() + mgr_.tDd();
    }
}

// ---------------------------------------------------------------------
// SM dispatch
// ---------------------------------------------------------------------

void
SpinUnit::processSm(const SpecialMsg &sm, PortId inport,
                    std::vector<SmSend> &sends)
{
    switch (sm.type) {
      case SmType::Probe:
        probeMgr_.process(sm, inport, sends);
        break;
      case SmType::Move:
      case SmType::ProbeMove:
        moveMgr_.processMove(sm, inport, sends);
        break;
      case SmType::KillMove:
        moveMgr_.processKill(sm, inport, sends);
        break;
    }
}

// ---------------------------------------------------------------------
// Counter FSM
// ---------------------------------------------------------------------

void
SpinUnit::tickDetect(Cycle now)
{
    if (victim_.active)
        return; // the counter is armed for the spin cycle instead
    if (now < deadline_)
        return;
    deadline_ = now + mgr_.tDd(); // reset and restart regardless

    // Collect the "ripe" VCs: qualifying, routed toward a real link,
    // and without forward progress for at least t_DD.
    struct Ripe
    {
        PortId inport;
        VcId vc;
        Cycle since;
    };
    std::vector<Ripe> ripe;
    const int vcs = router_.network().config().totalVcs();
    bool any_qualifies = false;
    for (PortId p = 0; p < router_.radix(); ++p) {
        for (VcId v = 0; v < vcs; ++v) {
            if (!qualifies(p, v))
                continue;
            any_qualifies = true;
            const VirtualChannel &ch = router_.input(p).vc(v);
            if (now - ch.lastProgress() < mgr_.tDd())
                continue;
            const PortId req = router_.depRequest(p, v);
            if (req == kInvalidId || router_.isNicPort(req))
                continue;
            ripe.push_back(Ripe{p, v, ch.lastProgress()});
        }
    }
    if (!any_qualifies) {
        state_ = InitState::Off;
        deadline_ = kNeverCycle;
        return;
    }
    if (ripe.empty())
        return;

    // Probe the *oldest*-blocked VC first: a deadlock's own loop stops
    // before the chains that pile up behind it, so at loop routers the
    // oldest VC is the loop VC. Alternate with a slow sweep over the
    // younger ripe VCs so a router stuck *behind* a remote loop still
    // covers everything (see DESIGN.md on detection coverage).
    std::sort(ripe.begin(), ripe.end(),
              [](const Ripe &a, const Ripe &b) {
                  return a.since < b.since;
              });
    std::size_t pick = 0;
    if (probeAttempt_ % 2 == 1)
        pick = (probeAttempt_ / 2 + 1) % ripe.size();
    ++probeAttempt_;

    const PortId inport = ripe[pick].inport;
    const VcId vcid = ripe[pick].vc;
    ptrInport_ = inport; // the probe-return acceptance port
    ptrVc_ = vcid;
    const PortId req = router_.depRequest(inport, vcid);

    SpecialMsg probe;
    probe.type = SmType::Probe;
    probe.sender = router_.id();
    probe.vnet = router_.input(inport).vc(vcid).owner()->vnet;
    probe.sendCycle = now + 1; // generation takes a cycle
    probe.path.push_back(req);
    mgr_.scheduleSend(now + 1, SmSend{probe, router_.id(), req});
    ++router_.network().stats().probesSent;
    if (obs::Tracer *t = router_.network().trace())
        t->spin(now, "probe_sent", router_.id(), nullptr, inport, vcid);
}

void
SpinUnit::tick(Cycle now)
{
    switch (state_) {
      case InitState::Off:
        break;
      case InitState::DetectDeadlock:
        tickDetect(now);
        break;
      case InitState::MoveWait:
      case InitState::ProbeMoveWait:
        if (now >= deadline_)
            sendKill(now); // move/probe_move was dropped somewhere
        break;
      case InitState::KillMoveWait:
        if (now >= deadline_) {
            // kill_move lost; every frozen router also un-freezes via
            // its own safety net, so just restart detection.
            loop_.clear();
            resetDetection(now);
        }
        break;
      case InitState::FwdProgress:
        break; // the SpinManager fires the rotation at the spin cycle
    }
}

void
SpinUnit::sendKill(Cycle now)
{
    SPIN_ASSERT(loop_.valid(), "kill without a latched loop");
    SpecialMsg kill;
    kill.type = SmType::KillMove;
    kill.sender = router_.id();
    kill.vnet = loopVnet_;
    kill.sendCycle = now + 1;
    kill.path = loop_.path();
    kill.pathIdx = 1;
    if (mgr_.mutation() != ProtocolMutation::SkipKillMove) {
        mgr_.scheduleSend(now + 1,
                          SmSend{kill, router_.id(), kill.path[0]});
    }
    state_ = InitState::KillMoveWait;
    deadline_ = now + 1 + loop_.loopLatency() + 1;
    ++router_.network().stats().killMovesSent;
    if (obs::Tracer *t = router_.network().trace())
        t->spin(now, "kill_move_sent", router_.id(), nullptr,
                static_cast<std::int64_t>(kill.path.size()));

    // Our own committed freeze (if the move returned before a later
    // probe_move failed) is released immediately.
    if (victim_.active && victim_.source == router_.id())
        unfreezeAll();
}

// ---------------------------------------------------------------------
// Freeze bookkeeping
// ---------------------------------------------------------------------

VcId
SpinUnit::findFreezable(PortId inport, PortId outport, VnetId vnet) const
{
    const InputUnit &iu = router_.input(inport);
    if (iu.fromNic())
        return kInvalidId;
    const int per = router_.network().config().vcsPerVnet;
    const VcId lo = vnet * per;
    for (VcId v = lo; v < lo + per; ++v) {
        const VirtualChannel &vc = iu.vc(v);
        if (!vc.active() || vc.frozen || !vc.packetComplete())
            continue;
        if (vc.grantedVc != kInvalidId)
            continue; // already committed downstream; it will move
        if (vc.routeValid && vc.request == outport)
            return v;
    }
    return kInvalidId;
}

void
SpinUnit::freeze(PortId inport, VcId vc, PortId outport, RouterId source,
                 Cycle spin_cycle)
{
    VirtualChannel &v = router_.input(inport).vc(vc);
    SPIN_ASSERT(!v.frozen, "double freeze");
    v.frozen = true;
    v.frozenOutport = outport;
    victim_.active = true;
    victim_.source = source;
    victim_.spinCycle = spin_cycle;
    frozen_.push_back(FrozenEntry{inport, vc, outport});
    if (obs::Tracer *t = router_.network().trace())
        t->spin(router_.network().now(), "vc_freeze", router_.id(),
                nullptr, inport, vc);
}

bool
SpinUnit::unfreeze(PortId inport, PortId outport)
{
    for (std::size_t i = 0; i < frozen_.size(); ++i) {
        if (frozen_[i].inport == inport && frozen_[i].outport == outport) {
            VirtualChannel &v = router_.input(inport).vc(frozen_[i].vc);
            v.frozen = false;
            v.frozenOutport = kInvalidId;
            frozen_.erase(frozen_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            if (frozen_.empty())
                victim_ = VictimCtx{};
            return true;
        }
    }
    return false;
}

void
SpinUnit::unfreezeAll()
{
    for (const FrozenEntry &e : frozen_) {
        VirtualChannel &v = router_.input(e.inport).vc(e.vc);
        v.frozen = false;
        v.frozenOutport = kInvalidId;
    }
    frozen_.clear();
    victim_ = VictimCtx{};
}

// ---------------------------------------------------------------------
// Recovery milestones
// ---------------------------------------------------------------------

void
SpinUnit::onProbeReturned(const SpecialMsg &probe, Cycle now)
{
    SPIN_ASSERT(state_ == InitState::DetectDeadlock, "probe return in ",
                toString(state_));
    SPIN_ASSERT(now > probe.sendCycle, "probe returned instantly");
    const Cycle ll = now - probe.sendCycle;
    loop_.latch(probe.path, ll);
    loopVnet_ = probe.vnet;

    const Cycle te = now + 1;
    SpecialMsg move;
    move.type = SmType::Move;
    move.sender = router_.id();
    move.vnet = probe.vnet;
    move.sendCycle = te;
    move.path = loop_.path();
    move.pathIdx = 1;
    move.spinCycle = te + 2 * ll;
    mgr_.scheduleSend(te, SmSend{move, router_.id(), move.path[0]});

    state_ = InitState::MoveWait;
    deadline_ = te + ll + 1;
    Stats &st = router_.network().stats();
    ++st.probesReturned;
    ++st.movesSent;

    Network &net = router_.network();
    if (obs::Tracer *t = net.trace()) {
        t->spin(now, "probe_return", router_.id(), nullptr,
                static_cast<std::int64_t>(ll),
                static_cast<std::int64_t>(probe.path.size()));
        t->spin(te, "move_sent", router_.id(), nullptr,
                static_cast<std::int64_t>(move.spinCycle));
    }
    if (obs::Forensics *f = net.forensics())
        f->onProbeReturned(net, router_.id(), ptrInport_, ptrVc_, probe,
                           now);
}

void
SpinUnit::onMoveReturned(const SpecialMsg &sm, PortId inport, Cycle now)
{
    // Freeze our own deadlocked packet: the VC at the SM's in-port that
    // wants path[0] (paper Step 11).
    const VcId v = findFreezable(inport, sm.path[0], sm.vnet);
    if (v == kInvalidId) {
        // Our own dependency vanished; cancel the whole spin.
        sendKill(now);
        return;
    }
    freeze(inport, v, sm.path[0], router_.id(), sm.spinCycle);
    state_ = InitState::FwdProgress;
    deadline_ = sm.spinCycle;
    Stats &st = router_.network().stats();
    if (sm.type == SmType::Move)
        ++st.movesReturned;
    else
        ++st.probeMovesReturned;
    if (obs::Tracer *t = router_.network().trace())
        t->spin(now,
                sm.type == SmType::Move ? "move_return"
                                        : "probe_move_return",
                router_.id(), nullptr,
                static_cast<std::int64_t>(sm.spinCycle));
}

void
SpinUnit::onKillReturned(Cycle now)
{
    loop_.clear();
    unfreezeAll();
    resetDetection(now);
}

void
SpinUnit::abortForFault(Cycle now)
{
    (void)now;
    unfreezeAll();
    loop_.clear();
    ptrInport_ = kInvalidId;
    ptrVc_ = kInvalidId;
    state_ = InitState::Off;
    deadline_ = kNeverCycle;
}

void
SpinUnit::onSpinExecuted(Cycle now)
{
    frozen_.clear();
    victim_ = VictimCtx{};

    if (state_ == InitState::FwdProgress) {
        // We initiated this spin: immediately re-check the loop with a
        // probe_move once the rotated packets have settled.
        SPIN_ASSERT(loop_.valid(), "initiator without a loop");
        const Cycle te =
            now + router_.network().config().probeMoveDelay;
        SpecialMsg pm;
        pm.type = SmType::ProbeMove;
        pm.sender = router_.id();
        pm.vnet = loopVnet_;
        pm.sendCycle = te;
        pm.path = loop_.path();
        pm.pathIdx = 1;
        pm.spinCycle = te + 2 * loop_.loopLatency();
        mgr_.scheduleSend(te, SmSend{pm, router_.id(), pm.path[0]});
        state_ = InitState::ProbeMoveWait;
        deadline_ = te + loop_.loopLatency() + 1;
        ++router_.network().stats().probeMovesSent;
        if (obs::Tracer *t = router_.network().trace())
            t->spin(te, "probe_move_sent", router_.id(), nullptr,
                    static_cast<std::int64_t>(pm.spinCycle));
    } else {
        resetDetection(now);
    }
}

void
SpinUnit::onSpinCancelled(Cycle now)
{
    unfreezeAll();
    if (state_ == InitState::FwdProgress) {
        loop_.clear();
        state_ = InitState::DetectDeadlock;
    }
    resetDetection(now);
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

namespace
{

std::int64_t
relCycle(Cycle abs, Cycle now)
{
    if (abs == kNeverCycle)
        return FsmSnapshot::kNever;
    return static_cast<std::int64_t>(abs) - static_cast<std::int64_t>(now);
}

Cycle
absCycle(std::int64_t rel, Cycle now)
{
    if (rel == FsmSnapshot::kNever)
        return kNeverCycle;
    return static_cast<Cycle>(rel + static_cast<std::int64_t>(now));
}

} // namespace

FsmSnapshot
SpinUnit::snapshot(Cycle now) const
{
    FsmSnapshot s;
    s.state = state_;
    s.deadlineIn = relCycle(deadline_, now);
    s.ptrInport = ptrInport_;
    s.ptrVc = ptrVc_;
    s.victimActive = victim_.active;
    s.victimSource = victim_.source;
    s.spinIn = victim_.active ? relCycle(victim_.spinCycle, now)
                              : FsmSnapshot::kNever;
    s.loopValid = loop_.valid();
    if (s.loopValid) {
        s.loopPath = loop_.path();
        s.loopLatency = loop_.loopLatency();
        s.loopVnet = loopVnet_;
    }
    s.probeAttempt = probeAttempt_;
    s.frozen.reserve(frozen_.size());
    for (const FrozenEntry &e : frozen_)
        s.frozen.push_back(FsmSnapshot::Frozen{e.inport, e.vc, e.outport});
    return s;
}

void
SpinUnit::restore(const FsmSnapshot &s, Cycle now)
{
    unfreezeAll();
    state_ = s.state;
    deadline_ = absCycle(s.deadlineIn, now);
    ptrInport_ = s.ptrInport;
    ptrVc_ = s.ptrVc;
    victim_.active = s.victimActive;
    victim_.source = s.victimSource;
    victim_.spinCycle =
        s.victimActive ? absCycle(s.spinIn, now) : kNeverCycle;
    if (s.loopValid)
        loop_.latch(s.loopPath, s.loopLatency);
    else
        loop_.clear();
    loopVnet_ = s.loopVnet;
    probeAttempt_ = s.probeAttempt;
    for (const FsmSnapshot::Frozen &f : s.frozen) {
        VirtualChannel &v = router_.input(f.inport).vc(f.vc);
        v.frozen = true;
        v.frozenOutport = f.outport;
        frozen_.push_back(FrozenEntry{f.inport, f.vc, f.outport});
    }
}

SpinState
SpinUnit::paperState() const
{
    if (victim_.active && victim_.source != router_.id())
        return SpinState::Frozen;
    switch (state_) {
      case InitState::Off:            return SpinState::Off;
      case InitState::DetectDeadlock: return SpinState::DetectDeadlock;
      case InitState::MoveWait:       return SpinState::Move;
      case InitState::FwdProgress:    return SpinState::ForwardProgress;
      case InitState::ProbeMoveWait:  return SpinState::ProbeMove;
      case InitState::KillMoveWait:   return SpinState::KillMove;
    }
    return SpinState::Off;
}

} // namespace spin
