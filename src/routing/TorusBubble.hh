/**
 * @file
 * Dimension-ordered torus routing with Bubble Flow Control (Carrion et
 * al. / Puente et al.), the concrete implementation of Table I's
 * "Flow Control" theory row: a torus ring cannot deadlock as long as
 * one free packet buffer remains in it, so a packet may *enter* a ring
 * (from injection or from the other dimension) only when the ring
 * would retain a free VC after the move. Packets already traveling
 * within a ring advance unrestricted.
 *
 * The bubble check here is the idealized global-view variant (the
 * paper's references implement it distributedly with critical-bubble
 * tokens); the admission semantics -- and therefore the deadlock
 * freedom and the injection-restriction cost the paper's Table I
 * records -- are the same.
 */

#ifndef SPINNOC_ROUTING_TORUSBUBBLE_HH
#define SPINNOC_ROUTING_TORUSBUBBLE_HH

#include "routing/RoutingAlgorithm.hh"

namespace spin
{

/** See file comment. */
class TorusBubble : public RoutingAlgorithm
{
  public:
    std::string
    name() const override { return toString(RoutingKind::TorusBubble); }
    bool selfDeadlockFree() const override { return true; }

    void attach(Network &net) override;
    void candidates(const Packet &pkt, const Router &r, RouterId target,
                    std::vector<PortId> &out) const override;
    bool admission(const Packet &pkt, const Router &r, PortId inport,
                   PortId outport) const override;
    bool sccProtectedByFlowControl(
        const std::vector<StaticChannel> &channels) const override;

    /** Free VCs in the unidirectional ring entered via @p outport of
     *  router @p r, for @p vnet (diagnostic + admission input). */
    int ringFreeVcs(const Router &r, PortId outport, VnetId vnet) const;

  private:
    /** Wrap-aware signed delta from @p from to @p to modulo @p k. */
    static int wrapDelta(int from, int to, int k);
    /** True when @p port moves along the X dimension. */
    static bool isXPort(PortId port);
};

} // namespace spin

#endif // SPINNOC_ROUTING_TORUSBUBBLE_HH
