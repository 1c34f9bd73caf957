/**
 * @file
 * Routing algorithm interface.
 *
 * An algorithm answers three questions each cycle for a head packet at a
 * router: which output ports are acceptable (candidates), which one to
 * request right now (select, re-evaluated every cycle while blocked --
 * this is what makes routing adaptive), and which downstream VCs the
 * packet may acquire (allowedVcs -- this is where Dally-style VC
 * orderings and Duato escape restrictions live). Algorithms that
 * misroute (UGAL, FAvORS-NMin) additionally make a one-time decision at
 * the source (sourceRoute).
 */

#ifndef SPINNOC_ROUTING_ROUTINGALGORITHM_HH
#define SPINNOC_ROUTING_ROUTINGALGORITHM_HH

#include <string>
#include <vector>

#include "common/Config.hh"
#include "common/EnumNames.hh"
#include "common/Packet.hh"
#include "common/Types.hh"

namespace spin
{

class Network;
class Router;

/** The built-in routing algorithms (makeRouting() builds each). */
enum class RoutingKind : std::uint8_t
{
    XyDor,           //!< deterministic dimension order
    WestFirst,       //!< turn-model partial adaptive (Dally avoidance)
    MinimalAdaptive, //!< fully adaptive minimal (needs recovery)
    EscapeVc,        //!< Duato escape-VC avoidance
    TorusBubble,     //!< DOR + bubble flow control (torus avoidance)
    UgalDally,       //!< UGAL with VC-ordering avoidance (dragonfly)
    UgalSpin,        //!< UGAL, unrestricted VCs (for SPIN)
    FavorsMin,       //!< FAvORS minimal (paper Sec. V)
    FavorsNMin,      //!< FAvORS non-minimal (paper Sec. V)
};

/** --routing values and each built-in algorithm's name(). */
inline constexpr EnumName<RoutingKind> kRoutingKindNames[] = {
    {RoutingKind::XyDor, "xy-dor"},
    {RoutingKind::WestFirst, "west-first"},
    {RoutingKind::MinimalAdaptive, "minimal-adaptive"},
    {RoutingKind::EscapeVc, "escape-vc"},
    {RoutingKind::TorusBubble, "torus-bubble-dor"},
    {RoutingKind::UgalDally, "ugal-dally"},
    {RoutingKind::UgalSpin, "ugal-spin"},
    {RoutingKind::FavorsMin, "favors-min"},
    {RoutingKind::FavorsNMin, "favors-nmin"},
};
constexpr const auto &enumNames(RoutingKind) { return kRoutingKindNames; }

/**
 * Abstract per-packet routing state for static channel-dependency-graph
 * analysis (src/analysis). It captures exactly the Packet fields the
 * routing functions read -- destination, current target, escape /
 * misroute phase, global-hop VC class -- so the analyzer can enumerate
 * every state a packet can be in without simulating traffic.
 */
struct RouteState
{
    RouterId router = kInvalidId; //!< where the packet head is
    RouterId target = kInvalidId; //!< current routing target
    RouterId dest = kInvalidId;   //!< final destination router
    VnetId vnet = 0;
    /** Global links taken so far, saturated (VC-ordered schemes). */
    int globalHops = 0;
    /** True once the packet entered an escape / reserved layer. */
    bool onEscape = false;
    /** True while routing toward an intermediate router (phase 1). */
    bool misrouting = false;

    /** The packet ejects here: no further channel is demanded. */
    bool terminal() const { return router == dest; }
    bool operator==(const RouteState &) const = default;
};

/** One statically enumerated hop option: the per-VC channel taken
 *  (outport + downstream VC) and the resulting routing state. */
struct RouteHop
{
    PortId outport = kInvalidId;
    VcId vc = kInvalidId;
    RouteState next;
};

/** One per-VC channel as the static-analysis hooks see it. */
struct StaticChannel
{
    RouterId src = kInvalidId;
    PortId srcPort = kInvalidId;
    RouterId dst = kInvalidId;
    PortId dstPort = kInvalidId;
    VcId vc = kInvalidId;
};

/** Base class; see file comment. Stateless per packet: all per-packet
 *  state lives in the Packet record. */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /** Human-readable name (Table III row label). */
    virtual std::string name() const = 0;

    /** True when no legal minimal turn is ever prohibited. */
    virtual bool fullyAdaptive() const { return false; }
    /** True when the algorithm can misroute (needs livelock bound p). */
    virtual bool nonMinimal() const { return false; }
    /**
     * True when the algorithm is deadlock-free by itself (avoidance);
     * false when it relies on a recovery scheme such as SPIN.
     */
    virtual bool selfDeadlockFree() const { return false; }
    /** Minimum VCs per vnet this algorithm needs to operate. */
    virtual int minVcsPerVnet() const { return 1; }

    /**
     * Bind to a network. Called once by the Network constructor;
     * validates topology metadata requirements.
     */
    virtual void attach(Network &net);

    /**
     * One-time decision at the source router when the packet reaches
     * the head of its NIC queue (e.g. minimal-vs-Valiant).
     */
    virtual void sourceRoute(Packet &pkt, RouterId src);

    /**
     * Output ports @p pkt may take at router @p r this cycle, written
     * into @p out (cleared first). Never includes the ejection port:
     * the router ejects when destRouter == r. Must be non-empty.
     *
     * @param target the packet's current routing target (the
     *        intermediate router during a misroute phase, otherwise the
     *        destination router)
     */
    virtual void candidates(const Packet &pkt, const Router &r,
                            RouterId target,
                            std::vector<PortId> &out) const = 0;

    /**
     * Choose this cycle's requested port among @p cands.
     * Default policy is the paper's FAvORS selection (Sec. V): prefer a
     * random candidate whose next-hop has a free allowed VC, otherwise
     * the candidate whose next-hop VC has been active the fewest cycles.
     */
    virtual PortId select(const Packet &pkt, const Router &r,
                          const std::vector<PortId> &cands) const;

    /**
     * Downstream VC indices @p pkt may acquire when leaving @p r via
     * @p outport, written into @p out (cleared first). Default: every
     * VC of the packet's vnet.
     */
    virtual void allowedVcs(const Packet &pkt, const Router &r,
                            PortId outport, std::vector<VcId> &out) const;

    /** VCs a NIC may inject into at the source router's local port.
     *  Default: same as allowedVcs toward the local in-port. */
    virtual void injectionVcs(const Packet &pkt, const Router &r,
                              std::vector<VcId> &out) const;

    /**
     * Admission check consulted before downstream-VC allocation; used
     * by flow-control schemes (bubble flow control) to gate entry into
     * a resource class. Default: always admit.
     */
    virtual bool admission(const Packet &pkt, const Router &r,
                           PortId inport, PortId outport) const;

    /// @name A head's route options
    /// The one definition the router, NICs, deadlock oracle and static
    /// analyzer ask instead of the hooks above: those hooks plus the
    /// deadlock scheme's rules. A Static Bubble recovery packet drains
    /// west-first on its vnet's reserved VC; no other packet takes it.
    /// @{
    /** True when @p pkt drains on the scheme's recovery network: its
     *  one headPorts() answer is never fault-filtered or re-selected. */
    bool onRecoveryNetwork(const Packet &pkt) const;
    /** Output ports @p pkt may request at @p r toward @p target, written
     *  into @p out: candidates(), or the recovery network's port. */
    void headPorts(const Packet &pkt, const Router &r, RouterId target,
                   std::vector<PortId> &out) const;
    /** Downstream VCs @p pkt may acquire leaving @p r via @p outport,
     *  written into @p out: allowedVcs() without the reserved VC, or the
     *  reserved VC alone on the recovery network. */
    void headVcs(const Packet &pkt, const Router &r, PortId outport,
                 std::vector<VcId> &out) const;
    /** VCs a NIC may inject @p pkt into at its source router @p r,
     *  written into @p out: injectionVcs() without the reserved VC. */
    void headInjectionVcs(const Packet &pkt, const Router &r,
                          std::vector<VcId> &out) const;
    /// @}

    /** Hook: head flit committed to leave @p r via @p outport. */
    virtual void onHop(Packet &pkt, const Router &r, PortId outport) const;

    /** Hook: downstream VC granted (escape-network tracking). */
    virtual void onVcGranted(Packet &pkt, const Router &r, PortId outport,
                             VcId vc) const;

    /// @name Static analysis (spin-lint / src/analysis)
    /// @{
    /**
     * Routing states a packet injected at @p src toward @p dest can
     * start in. Default: the single minimal state; misrouting
     * algorithms (nonMinimal()) additionally start one phase-1 state
     * per possible intermediate router.
     */
    virtual void initialStates(RouterId src, RouterId dest, VnetId vnet,
                               std::vector<RouteState> &out) const;

    /**
     * Every (outport, downstream VC) channel a packet in state @p s may
     * demand next, with the state it would then be in. The default
     * derives the set mechanically from headPorts() x headVcs() and
     * advances the state through the onHop / onVcGranted hooks, so most
     * algorithms need no override. Empty when @p s is terminal.
     */
    virtual void enumerateHops(const RouteState &s,
                               std::vector<RouteHop> &out) const;

    /**
     * VCs of @p vnet forming a Duato-style escape layer, written into
     * @p out (cleared first). Empty (the default) means the algorithm
     * declares no escape layer; a non-empty answer makes the analyzer
     * run the escape-subgraph acyclicity + reachability checks.
     */
    virtual void escapeVcs(VnetId vnet, std::vector<VcId> &out) const;

    /**
     * True when the algorithm's flow control guarantees that the
     * dependency cycles inside the strongly connected component formed
     * by @p channels can never completely fill (e.g. bubble flow
     * control keeps one free packet buffer per torus ring). Default:
     * no such guarantee.
     */
    virtual bool sccProtectedByFlowControl(
        const std::vector<StaticChannel> &channels) const;
    /// @}

  protected:
    Network *net_ = nullptr;

    /** First and last VC index of @p vnet given the attached config. */
    VcId vnetVcBase(VnetId vnet) const;
    int vcsPerVnet() const;

};

/**
 * The VC of @p vnet the deadlock scheme reserves for recovery (Static
 * Bubble keeps the last VC of every vnet), or kInvalidId when it
 * reserves none.
 */
VcId reservedVc(const NetworkConfig &cfg, VnetId vnet);

} // namespace spin

#endif // SPINNOC_ROUTING_ROUTINGALGORITHM_HH
