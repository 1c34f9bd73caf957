/**
 * @file
 * Generic interconnection-network topology.
 *
 * A Topology is a directed multigraph over routers plus a set of NIC
 * attachment points. Every concrete topology (mesh, torus, ring,
 * dragonfly, irregular graphs) is expressed as a plain Topology instance
 * with optional metadata blocks that structure-aware routing algorithms
 * (XY, west-first, UGAL) can consult. SPIN itself never reads the
 * metadata: it is topology agnostic, which is the point of the paper.
 */

#ifndef SPINNOC_TOPOLOGY_TOPOLOGY_HH
#define SPINNOC_TOPOLOGY_TOPOLOGY_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/Types.hh"

namespace spin
{

/** One directed channel: (src router, src out-port) -> (dst, in-port). */
struct LinkSpec
{
    RouterId src = kInvalidId;
    PortId srcPort = kInvalidId;
    RouterId dst = kInvalidId;
    PortId dstPort = kInvalidId;
    /** Link traversal latency in cycles (>= 1). */
    Cycle latency = 1;
    /** True for dragonfly inter-group channels (UGAL cares). */
    bool global = false;
};

/** NIC attachment: node <-> (router, local port). */
struct NicAttach
{
    NodeId node = kInvalidId;
    RouterId router = kInvalidId;
    /** Local port used both for injection (in) and ejection (out). */
    PortId port = kInvalidId;
};

/** Mesh/torus structural metadata. */
struct MeshInfo
{
    int sizeX = 0;
    int sizeY = 0;
    bool wrap = false; //!< torus when true

    /** Canonical mesh port directions. */
    static constexpr PortId kEast = 0;
    static constexpr PortId kWest = 1;
    static constexpr PortId kNorth = 2;
    static constexpr PortId kSouth = 3;
    static constexpr PortId kLocal = 4;

    int xOf(RouterId r) const { return r % sizeX; }
    int yOf(RouterId r) const { return r / sizeX; }
    RouterId routerAt(int x, int y) const { return y * sizeX + x; }
};

/** Dragonfly structural metadata (Kim et al. canonical arrangement). */
struct DragonflyInfo
{
    int p = 0; //!< terminals per router
    int a = 0; //!< routers per group
    int h = 0; //!< global channels per router
    int g = 0; //!< number of groups (<= a*h + 1)

    int groupOf(RouterId r) const { return r / a; }
    RouterId routerOf(int group, int idx) const { return group * a + idx; }

    /** Local ports to the other a-1 routers in the group: [0, a-1). */
    PortId localPortBase() const { return 0; }
    /** Global ports: [a-1, a-1+h). */
    PortId globalPortBase() const { return a - 1; }
    /** Terminal (NIC) ports: [a-1+h, a-1+h+p). */
    PortId terminalPortBase() const { return a - 1 + h; }
};

/** Ring structural metadata. */
struct RingInfo
{
    int n = 0;
    static constexpr PortId kCw = 0;  //!< +1 direction
    static constexpr PortId kCcw = 1; //!< -1 direction
    static constexpr PortId kLocal = 2;
};

/**
 * A set of out-ports of one router, stored as a bitmask (bit p = port
 * p; radix <= 64). Iterates in ascending port order.
 */
class PortSet
{
  public:
    /** Forward iterator over the set bits, lowest first. */
    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = PortId;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = PortId;

        iterator() = default;
        explicit iterator(std::uint64_t rest) : rest_(rest) {}
        PortId operator*() const { return std::countr_zero(rest_); }
        iterator &
        operator++()
        {
            rest_ &= rest_ - 1;
            return *this;
        }
        iterator
        operator++(int)
        {
            const iterator old = *this;
            ++*this;
            return old;
        }
        bool operator==(const iterator &) const = default;

      private:
        std::uint64_t rest_ = 0;
    };

    explicit PortSet(std::uint64_t mask) : mask_(mask) {}

    iterator begin() const { return iterator(mask_); }
    iterator end() const { return iterator(); }
    bool empty() const { return mask_ == 0; }
    std::size_t size() const { return std::popcount(mask_); }
    /** Lowest port of a non-empty set. */
    PortId front() const { return std::countr_zero(mask_); }

  private:
    std::uint64_t mask_ = 0;
};

/**
 * Immutable topology description plus derived routing tables.
 * Build one with the generator functions (makeMesh, makeDragonfly, ...)
 * or assemble a custom instance and call finalize().
 */
class Topology
{
  public:
    Topology() = default;

    /// @name Assembly (before finalize)
    /// @{
    /** Create @p n routers, each with @p ports ports, all unconnected. */
    void setRouters(int n, int ports);
    /** Per-router port count override (irregular radix). */
    void setRouters(const std::vector<int> &ports_per_router);
    /** Add one directed link. Ports must be unused in that direction. */
    void addLink(const LinkSpec &l);
    /** Add a bidirectional link using the same port pair on both ends. */
    void addBiLink(RouterId a, PortId pa, RouterId b, PortId pb,
                   Cycle latency = 1, bool global = false);
    /** Attach NIC @p node at (router, port). */
    void attachNic(NodeId node, RouterId router, PortId port);
    /**
     * Validate the assembled graph and derive routing tables
     * (hop distances, minimal next-hop port sets).
     * @throws FatalError if the router graph is not strongly connected
     *         or a router has more than 64 ports.
     */
    void finalize();
    /**
     * finalize() minus the strong-connectivity requirement, for
     * degraded (fault-injected) topologies: unreachable pairs get
     * distance() == -1 and empty minimalPorts(). partial() reports
     * which variant built the tables.
     */
    void finalizePartial();
    /// @}

    /// @name Structure queries (after finalize)
    /// @{
    int numRouters() const { return static_cast<int>(radix_.size()); }
    /** True when built by finalizePartial() (may be disconnected). */
    bool partial() const { return partial_; }
    int numNodes() const { return static_cast<int>(nics_.size()); }
    int radix(RouterId r) const { return radix_[r]; }
    const std::vector<LinkSpec> &links() const { return links_; }
    const std::vector<NicAttach> &nics() const { return nics_; }

    /** Link leaving (r, port), or nullptr when the out-port is unwired. */
    const LinkSpec *outLink(RouterId r, PortId port) const;
    /** True when @p port of @p r is a NIC (local) port. */
    bool isNicPort(RouterId r, PortId port) const;

    RouterId routerOfNode(NodeId n) const { return nics_[n].router; }
    PortId portOfNode(NodeId n) const { return nics_[n].port; }
    /** Nodes attached to router @p r. */
    const std::vector<NodeId> &nodesAt(RouterId r) const;
    /// @}

    /// @name Routing tables (after finalize)
    /// @{
    /** Minimal hop count between routers (router graph, unweighted). */
    int distance(RouterId from, RouterId to) const;
    /** Out-ports of @p from on some minimal path to @p to (non-empty
     *  unless from == to or @p to is unreachable). */
    PortSet minimalPorts(RouterId from, RouterId to) const;
    /// @}

    /// @name Metadata
    /// @{
    std::optional<MeshInfo> mesh;
    std::optional<DragonflyInfo> dragonfly;
    std::optional<RingInfo> ring;
    std::string name = "custom";
    /// @}

  private:
    std::vector<int> radix_;
    std::vector<LinkSpec> links_;
    std::vector<NicAttach> nics_;

    // (router, port) -> index into links_ or -1, at portBase_[router]
    // + port.
    std::vector<std::int32_t> portBase_;
    std::vector<std::int32_t> outLinkIdx_;
    std::vector<std::int32_t> inLinkIdx_;
    std::vector<std::vector<NodeId>> nodesAt_;

    // Per router pair, at from * numRouters() + to: hop distance (-1
    // when unreachable) and the minimal next-hop port mask. A mask takes
    // maskBytes_ = ceil(max radix / 8) bytes, lowest ports first; the
    // table ends in 7 bytes of padding so a lookup is one 8-byte load
    // cut down by keepMask_.
    std::vector<std::int16_t> dist_;
    std::vector<std::uint8_t> minMask_;
    int maskBytes_ = 0;
    std::uint64_t keepMask_ = 0;

    bool finalized_ = false;
    bool partial_ = false;

    void finalizeImpl(bool strict);
    void checkFinalized() const;
    std::size_t
    pairIndex(RouterId from, RouterId to) const
    {
        return static_cast<std::size_t>(from) * radix_.size() + to;
    }
};

} // namespace spin

#endif // SPINNOC_TOPOLOGY_TOPOLOGY_HH
