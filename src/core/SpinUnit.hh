/**
 * @file
 * Per-router SPIN unit: the counter FSM, the loop buffer, the frozen-VC
 * bookkeeping, and the probe/move managers (paper Table II). One is
 * attached to every router when the network's deadlock scheme is Spin.
 */

#ifndef SPINNOC_CORE_SPINUNIT_HH
#define SPINNOC_CORE_SPINUNIT_HH

#include <vector>

#include "common/Types.hh"
#include "core/LoopBuffer.hh"
#include "core/MoveManager.hh"
#include "core/ProbeManager.hh"
#include "core/SpecialMsg.hh"
#include "core/SpinFsm.hh"

namespace spin
{

class Router;
class SpinManager;

/** See file comment. */
class SpinUnit
{
  public:
    SpinUnit(SpinManager &mgr, Router &router);

    Router &router() { return router_; }
    const Router &router() const { return router_; }
    SpinManager &manager() { return mgr_; }

    /// @name Datapath hooks (called by the Router)
    /// @{
    /** A flit arrived at a non-local in-port: S_OFF -> S_DD. */
    void onFlitArrival(PortId inport, VcId vc);
    /// @}

    /**
     * Process one arriving SM; forwards are appended to @p sends and
     * contend for links this cycle in the SpinManager.
     */
    void processSm(const SpecialMsg &sm, PortId inport,
                   std::vector<SmSend> &sends);

    /** Counter expiry checks; runs once per cycle. */
    void tick(Cycle now);

    /// @name Frozen-VC bookkeeping (spin rotation inputs)
    /// @{
    struct FrozenEntry
    {
        PortId inport = kInvalidId;
        VcId vc = kInvalidId;
        PortId outport = kInvalidId;
    };

    const std::vector<FrozenEntry> &frozenEntries() const
    {
        return frozen_;
    }
    const VictimCtx &victim() const { return victim_; }

    /** Freeze (inport, vc) toward @p outport for @p source's recovery. */
    void freeze(PortId inport, VcId vc, PortId outport, RouterId source,
                Cycle spin_cycle);
    /** Unfreeze the entry matching (inport wanting @p outport), if any.
     *  @return true when an entry was released. */
    bool unfreeze(PortId inport, PortId outport);
    /** Drop all frozen state (kill_move completion / cancellation). */
    void unfreezeAll();
    /// @}

    /// @name Rotation-phase callbacks (SpinManager)
    /// @{
    /** All of this router's entries were just rotated. */
    void onSpinExecuted(Cycle now);
    /** Entries were cancelled by the safety fixpoint. */
    void onSpinCancelled(Cycle now);
    /// @}

    /// @name Introspection
    /// @{
    InitState initState() const { return state_; }
    /** The paper's seven-state view (see SpinFsm.hh). */
    SpinState paperState() const;
    const LoopBuffer &loopBuffer() const { return loop_; }
    /** In-port of the most recent probe (the acceptance port). */
    PortId pointerInport() const { return ptrInport_; }
    /** VC of the most recent probe at pointerInport(). */
    VcId pointerVc() const { return ptrVc_; }
    /** Expiry of the current state's timer; kNeverCycle when unarmed. */
    Cycle deadline() const { return deadline_; }
    /** Message class of the latched loop. Holds its last value after
     *  the loop clears, so it means something only while
     *  loopBuffer().valid(). */
    VnetId loopVnet() const { return loopVnet_; }
    /** Detection attempts so far (oldest-first / sweep alternation). */
    std::uint64_t probeAttempt() const { return probeAttempt_; }
    /// @}

    /// @name Used by the probe / move managers
    /// @{
    /** Accept a returned probe: latch loop, emit the move. */
    void onProbeReturned(const SpecialMsg &probe, Cycle now);
    /** Move/probe_move returned: freeze own VC, arm the spin. */
    void onMoveReturned(const SpecialMsg &sm, PortId inport, Cycle now);
    /** kill_move returned: clear recovery state. */
    void onKillReturned(Cycle now);
    /**
     * The router died (fault injection): drop every frozen entry and
     * all detection/recovery state without sending anything. The
     * router's buffers are purged by markDead, so watching them would
     * touch freed packet state.
     */
    void abortForFault(Cycle now);
    /** Abort the current recovery with a kill_move traversal. */
    void sendKill(Cycle now);
    /**
     * First VC of @p vnet at @p inport whose packet is complete,
     * unfrozen, uncommitted and currently waiting on @p outport;
     * kInvalidId when none (the move/probe_move drop condition).
     */
    VcId findFreezable(PortId inport, PortId outport, VnetId vnet) const;
    /// @}

  private:
    SpinManager &mgr_;
    Router &router_;
    ProbeManager probeMgr_;
    MoveManager moveMgr_;

    InitState state_ = InitState::Off;
    Cycle deadline_ = kNeverCycle;
    PortId ptrInport_ = kInvalidId;
    VcId ptrVc_ = kInvalidId;

    LoopBuffer loop_;
    /** Message class of the latched loop. */
    VnetId loopVnet_ = 0;
    VictimCtx victim_;
    std::vector<FrozenEntry> frozen_;

    /** True when (inport, vc) may be watched for deadlock. */
    bool qualifies(PortId inport, VcId vc) const;
    /** True when any VC at the router qualifies. */
    bool anyQualifies() const;
    /** Detection attempt counter (oldest-first / sweep alternation). */
    std::uint64_t probeAttempt_ = 0;
    /** Restart detection after a recovery completes or aborts. */
    void resetDetection(Cycle now);
    /** Detection timer logic within tick(). */
    void tickDetect(Cycle now);
};

} // namespace spin

#endif // SPINNOC_CORE_SPINUNIT_HH
