/**
 * @file
 * Static deadlock-freedom verdicts over a built channel dependency
 * graph: Tarjan acyclicity, the Duato escape-subgraph condition,
 * per-SCC flow-control (bubble) protection, recovery-scheme
 * applicability (SPIN probe budget + spin bound, Static Bubble
 * reserved-layer acyclicity), and concrete machine-checked witness
 * cycles for every cyclic verdict. This is the library behind the
 * `spin_lint` CLI; it statically reproduces the paper's Table 1
 * classification without simulating a single cycle.
 */

#ifndef SPINNOC_ANALYSIS_CDGANALYZER_HH
#define SPINNOC_ANALYSIS_CDGANALYZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/CdgBuilder.hh"
#include "common/Types.hh"
#include "obs/Json.hh"

namespace spin
{
class Network;
}

namespace spin::analysis
{

/** Why (or whether) a configuration is deadlock-free. */
enum class Verdict : std::uint8_t
{
    /** CDG acyclic: deadlock-free by routing restriction alone. */
    Acyclic,
    /** CDG cyclic, but the declared escape layer is acyclic, always
     *  reachable, and closed (Duato's sufficient condition). */
    EscapeProtected,
    /** CDG cyclic, but every cyclic SCC is neutralized by the routing
     *  algorithm's flow control (bubble condition). */
    FlowControlProtected,
    /** CDG cyclic; SPIN recovery covers every possible loop. */
    RecoverableSpin,
    /** CDG cyclic; the Static Bubble reserved layer drains it. */
    RecoverableStaticBubble,
    /** CDG cyclic and nothing protects it: the config can deadlock. */
    Deadlockable,
    /** State enumeration truncated: no sound verdict. */
    Inconclusive,
};

std::string toString(Verdict v);
/** Paper Table 1 theory-class label for @p v. */
std::string theoryClass(Verdict v);
/** True when the verdict certifies the configuration deadlock-free. */
bool verdictDeadlockFree(Verdict v);
/** True when freedom needs no recovery scheme (routing/flow control). */
bool verdictSelfSufficient(Verdict v);

/** One concrete dependency cycle, in edge order. */
struct WitnessCycle
{
    std::vector<int> nodes;             //!< CDG node ids
    std::vector<StaticChannel> channels; //!< same order as nodes
    /** Re-checked edge-by-edge against the routing function. */
    bool verified = false;
    /** Loop length m = packets in the canonical deadlock. */
    int length = 0;
    /** True when a SPIN probe can traverse the loop (m <= probe cap). */
    bool spinRecoverable = false;
    /** Paper Sec. III spin bound k = m*p + (m-1). */
    int spinBound = 0;

    obs::JsonValue toJson() const;
};

/** Full result of one static analysis run. */
struct AnalysisReport
{
    std::string topology;
    std::string routing;
    std::string scheme;
    VnetId vnet = 0;
    int vcsPerVnet = 0;

    Verdict verdict = Verdict::Inconclusive;

    /// @name Contract cross-check
    /// @{
    bool declaredSelfFree = false;
    /** Declared selfDeadlockFree() matches the static verdict. */
    bool contractOk = false;
    std::string contractNote;
    /// @}

    /// @name Graph shape
    /// @{
    std::uint64_t channelsUsed = 0;
    std::uint64_t dependencies = 0;
    std::uint64_t statesVisited = 0;
    int cyclicSccs = 0;
    int largestScc = 0;
    /// @}

    /// @name Escape condition (when a layer is declared)
    /// @{
    bool escapeDeclared = false;
    bool escapeAcyclic = false;
    bool escapeAlwaysReachable = false;
    bool escapeClosed = false;
    /// @}

    /** SPIN probe-hop budget in effect (0 when scheme != spin). */
    int probeBudget = 0;

    /** One shortest witness per cyclic SCC plus Johnson-enumerated
     *  cycles, deduplicated; empty when acyclic. */
    std::vector<WitnessCycle> witnesses;

    obs::JsonValue toJson() const;
    /** One human-readable verdict line. */
    std::string summary() const;
};

/** See file comment. */
class CdgAnalyzer
{
  public:
    explicit CdgAnalyzer(const Network &net);

    /** Build + judge the CDG of @p vnet. */
    AnalysisReport analyze(VnetId vnet = 0,
                           std::uint64_t max_states = 1ull << 24);

    /** The graph behind the last analyze() call (DOT export input). */
    const Cdg &cdg() const { return cdg_; }

    /**
     * Graphviz DOT of the used CDG subgraph: escape channels dashed,
     * cyclic-SCC members filled, witness edges bold red.
     */
    std::string toDot(const AnalysisReport &rep) const;

    /** Max cycles Johnson enumeration reports per analyze() call. */
    static constexpr std::size_t kMaxWitnesses = 16;
    /** Cycle length cap for Johnson enumeration. */
    static constexpr std::size_t kMaxWitnessLen = 64;

  private:
    const Network &net_;
    CdgBuilder builder_;
    Cdg cdg_;

    /** Re-execute the routing function along @p nodes; true when every
     *  edge of the cycle is reproduced. */
    bool verifyWitness(const std::vector<int> &nodes) const;
    /** Static Bubble's recovery layer (the ports headPorts() gives a
     *  recovery packet) is acyclic. */
    bool staticBubbleLayerAcyclic() const;
};

} // namespace spin::analysis

#endif // SPINNOC_ANALYSIS_CDGANALYZER_HH
