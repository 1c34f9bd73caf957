#include "network/Network.hh"

#include <fstream>

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "deadlock/StaticBubble.hh"
#include "fault/FaultInjector.hh"
#include "obs/Forensics.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "obs/Profiler.hh"
#include "obs/Tracer.hh"
#include "routing/RoutingAlgorithm.hh"
#include "sim/Parallel.hh"

namespace spin
{

thread_local StepShard *tlsStepShard = nullptr;

namespace
{

/** Installs shard staging (stats + trace redirection) for the duration
 *  of one shard's work on the current thread. RAII so a FatalError
 *  thrown inside a shard never leaks the redirection into later
 *  serial code on this thread. */
class ShardScope
{
  public:
    explicit ShardScope(StepShard &sh)
    {
        tlsStepShard = &sh;
        obs::Tracer::stageInto(&sh.events);
    }
    ~ShardScope()
    {
        obs::Tracer::stageInto(nullptr);
        tlsStepShard = nullptr;
    }
    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;
};

} // namespace

Network::Network(std::shared_ptr<const Topology> topo,
                 const NetworkConfig &cfg,
                 std::unique_ptr<RoutingAlgorithm> routing)
    : topo_(std::move(topo)), cfg_(cfg), routing_(std::move(routing)),
      rng_(cfg.seed)
{
    SPIN_ASSERT(topo_, "null topology");
    SPIN_ASSERT(routing_, "null routing algorithm");
    cfg_.validate();

    const int nr = topo_->numRouters();

    // Links, with (router, port) -> index maps in both directions.
    outIdx_.assign(nr, {});
    inIdx_.assign(nr, {});
    nicIdx_.assign(nr, {});
    for (RouterId r = 0; r < nr; ++r) {
        outIdx_[r].assign(topo_->radix(r), -1);
        inIdx_[r].assign(topo_->radix(r), -1);
        nicIdx_[r].assign(topo_->radix(r), kInvalidId);
    }
    links_.reserve(topo_->links().size());
    for (const LinkSpec &spec : topo_->links()) {
        const auto idx = static_cast<std::int32_t>(links_.size());
        links_.emplace_back(spec);
        outIdx_[spec.src][spec.srcPort] = idx;
        inIdx_[spec.dst][spec.dstPort] = idx;
    }
    for (const NicAttach &a : topo_->nics())
        nicIdx_[a.router][a.port] = a.node;

    routerLoad_.assign(nr, 0);
    routers_.reserve(nr);
    for (RouterId r = 0; r < nr; ++r)
        routers_.push_back(std::make_unique<Router>(*this, r));

    nics_.reserve(topo_->numNodes());
    for (NodeId n = 0; n < topo_->numNodes(); ++n)
        nics_.push_back(std::make_unique<Nic>(*this, n));

    routing_->attach(*this);
    // minVcsPerVnet() is authoritative: under-provisioning would void
    // the deadlock-freedom argument the algorithm's selfDeadlockFree()
    // declaration rests on (spin_lint verifies the declarations
    // statically). A VC the deadlock scheme reserves for recovery
    // (reservedVc) is closed to normal traffic, so it must not count.
    const int reservedVcs = reservedVc(cfg_, 0) != kInvalidId ? 1 : 0;
    if (cfg_.vcsPerVnet - reservedVcs < routing_->minVcsPerVnet()) {
        SPIN_FATAL(routing_->name(), " needs at least ",
                   routing_->minVcsPerVnet(),
                   " VCs per vnet usable by normal traffic, got ",
                   cfg_.vcsPerVnet - reservedVcs, " (", cfg_.vcsPerVnet,
                   " configured, ", reservedVcs,
                   " reserved for recovery)");
    }

    if (cfg_.scheme == DeadlockScheme::Spin) {
        spinMgr_ = std::make_unique<SpinManager>(*this);
    } else if (cfg_.scheme == DeadlockScheme::StaticBubble) {
        bubbles_.reserve(nr);
        for (RouterId r = 0; r < nr; ++r)
            bubbles_.push_back(std::make_unique<StaticBubbleUnit>(*this, r));
    }

    // Shard tables for the parallel step phases (docs/SCALING.md).
    // Shards are contiguous router-id ranges, so committing staged
    // side effects in shard order reproduces the serial router
    // iteration order exactly -- that identity is what makes results
    // bit-identical for every thread count. The tables are built even
    // for the serial case (one shard spanning everything) so both
    // paths walk the same canonical orders.
    threads_ = cfg_.threads > nr ? nr : cfg_.threads;
    shardLo_.resize(static_cast<std::size_t>(threads_) + 1);
    for (int s = 0; s <= threads_; ++s)
        shardLo_[s] = static_cast<RouterId>(
            static_cast<std::int64_t>(nr) * s / threads_);
    shardFlitLinks_.assign(threads_, {});
    shardCreditLinks_.assign(threads_, {});
    shardNics_.assign(threads_, {});
    for (int s = 0; s < threads_; ++s) {
        for (RouterId r = shardLo_[s]; r < shardLo_[s + 1]; ++r) {
            for (const std::int32_t li : inIdx_[r]) {
                if (li >= 0)
                    shardFlitLinks_[s].push_back(li);
            }
            for (const std::int32_t li : outIdx_[r]) {
                if (li >= 0)
                    shardCreditLinks_[s].push_back(li);
            }
            for (const NodeId n : topo_->nodesAt(r))
                shardNics_[s].push_back(n);
        }
    }
    if (threads_ > 1) {
        shards_.resize(threads_);
        exec_ = std::make_unique<StepExecutor>(threads_);
    }
}

Network::~Network() = default;

void
Network::step()
{
    const Cycle now = clock_.now();
    obs::PhaseProfiler *const prof = profiler_.get();

    // 0. Fault events due this cycle fire before anything moves, so a
    // failed component never accepts new work in the same cycle.
    if (faults_) {
        obs::PhaseScope ps(prof, obs::Phase::Faults);
        faults_->tick(now);
    }

    // 1. Wire arrivals. Sharded: each link's flit queue is drained by
    // the shard owning its destination router and its credit queue by
    // the shard owning its source router, so every piece of router
    // state keeps a single writer. Eject wires stay serial below:
    // tail retirement allocates packet ids through the eject listener
    // and needs one canonical (node-id) order.
    {
        obs::PhaseScope ps(prof, obs::Phase::Wires);
        runSharded([this, now](int s) { drainWiresShard(s, now); });
        for (auto &np : nics_)
            np->drainEjectWire(now);
        // End-to-end reliability timers ride the same serial slot:
        // retransmission allocates packet ids and touches peer NICs
        // (acks), so it needs the canonical node order too.
        if (cfg_.reliability.enabled) {
            for (auto &np : nics_)
                np->reliabilityStep(now);
        }
    }

    // 2-3. SPIN phases.
    if (spinMgr_) {
        {
            obs::PhaseScope ps(prof, obs::Phase::SpecialMsg);
            spinMgr_->smPhase(now);
        }
        obs::PhaseScope ps(prof, obs::Phase::Rotation);
        spinMgr_->spinPhase(now);
    }

    // 4. Static Bubble recovery.
    if (!bubbles_.empty()) {
        obs::PhaseScope ps(prof, obs::Phase::Bubble);
        for (auto &bp : bubbles_)
            bp->tick(now);
    }

    // 5. Injection. Sharded: a NIC touches only its own wires, its own
    // tracker, and its attachment router's shard (source-routing draws
    // come from the attachment router's private rng stream).
    {
        obs::PhaseScope ps(prof, obs::Phase::Injection);
        runSharded([this, now](int s) {
            for (const NodeId n : shardNics_[s])
                nics_[n]->injectStep(now);
        });
    }

    // 6-7. Route compute, VC allocation, switch allocation. A router
    // with no buffered flit provably does nothing in either phase
    // (every VC is empty, so route compute, allocation and the
    // round-robin pointers are untouched) -- skipping it is exactly
    // behavior-preserving and makes low-load cycles cheap. Both phases
    // write only router-local state; what they read of other routers
    // (credit counts, load) is mutated by other phases, never this
    // one, so within-phase order is immaterial and the shards can run
    // concurrently.
    {
        obs::PhaseScope ps(prof, obs::Phase::Routing);
        runSharded([this](int s) {
            const RouterId hi = shardLo_[s + 1];
            for (RouterId r = shardLo_[s]; r < hi; ++r) {
                if (routerLoad_[r] != 0)
                    routers_[r]->computeRoutes();
            }
        });
    }
    {
        obs::PhaseScope ps(prof, obs::Phase::SwitchAlloc);
        runSharded([this](int s) {
            const RouterId hi = shardLo_[s + 1];
            for (RouterId r = shardLo_[s]; r < hi; ++r) {
                if (routerLoad_[r] != 0)
                    routers_[r]->allocateSwitch();
            }
        });
    }

    // 8. SPIN timers.
    if (spinMgr_) {
        obs::PhaseScope ps(prof, obs::Phase::FsmTimers);
        spinMgr_->fsmTick(now);
    }

    if (metrics_) {
        obs::PhaseScope ps(prof, obs::Phase::Telemetry);
        metrics_->tick(now);
    }

    if (prof)
        prof->onCycle();

    clock_.tick();
}

void
Network::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        step();
}

void
Network::runSharded(const std::function<void(int)> &fn)
{
    if (!exec_) {
        // Serial: no staging, no commit. Identical results by
        // construction -- one shard walks the same canonical orders
        // the concatenated shards do.
        fn(0);
        return;
    }
    exec_->run([this, &fn](int s) {
        ShardScope scope(shards_[static_cast<std::size_t>(s)]);
        fn(s);
    });
    commitShards();
}

void
Network::commitShards()
{
    for (StepShard &sh : shards_) {
        stats_.mergeFrom(sh.stats);
        sh.stats = Stats();
        SPIN_ASSERT(inFlight_ >= sh.lost, "loss without matching offer");
        inFlight_ -= sh.lost;
        sh.lost = 0;
        if (tracer_) {
            // Replay through record() on this (coordinating) thread:
            // sink output lands in shard order, i.e. exactly the
            // serial emission order.
            for (const obs::TraceEvent &e : sh.events)
                tracer_->record(e);
        }
        sh.events.clear();
    }
}

void
Network::drainWiresShard(int s, Cycle now)
{
    for (const std::int32_t li : shardFlitLinks_[s]) {
        Link &l = links_[li];
        l.drainFlitsInto(now, [&](LinkFlit &lf) {
            routers_[l.spec().dst]->receiveFlit(l.spec().dstPort, lf.vc,
                                                std::move(lf.flit));
        });
    }
    for (const std::int32_t li : shardCreditLinks_[s]) {
        Link &l = links_[li];
        l.drainCreditsInto(now, [&](const CreditMsg &c) {
            routers_[l.spec().src]->receiveCredit(l.spec().srcPort, c.vc,
                                                  c.isFree);
        });
    }
    for (const NodeId n : shardNics_[s])
        nics_[n]->drainArrivalWires(now);
}

Link *
Network::outLinkOf(RouterId r, PortId port)
{
    const std::int32_t i = outIdx_[r][port];
    return i < 0 ? nullptr : &links_[i];
}

const Link *
Network::outLinkOf(RouterId r, PortId port) const
{
    const std::int32_t i = outIdx_[r][port];
    return i < 0 ? nullptr : &links_[i];
}

Link *
Network::inLinkOf(RouterId r, PortId port)
{
    const std::int32_t i = inIdx_[r][port];
    return i < 0 ? nullptr : &links_[i];
}

Nic &
Network::nicAt(RouterId r, PortId port)
{
    const NodeId n = nicIdx_[r][port];
    SPIN_ASSERT(n != kInvalidId, "no NIC at router ", r, " port ", port);
    return *nics_[n];
}

PacketPtr
Network::makePacket(NodeId src, NodeId dest, VnetId vnet, int size_flits)
{
    SPIN_ASSERT(src >= 0 && src < numNodes(), "bad src node ", src);
    SPIN_ASSERT(dest >= 0 && dest < numNodes(), "bad dest node ", dest);
    SPIN_ASSERT(vnet >= 0 && vnet < cfg_.vnets, "bad vnet ", vnet);
    SPIN_ASSERT(size_flits >= 1 && size_flits <= cfg_.maxPacketSize,
                "bad packet size ", size_flits);
    auto pkt = std::make_shared<Packet>();
    pkt->id = nextPacketId_++;
    pkt->src = src;
    pkt->dest = dest;
    pkt->destRouter = topo_->routerOfNode(dest);
    pkt->vnet = vnet;
    pkt->sizeFlits = size_flits;
    pkt->createCycle = clock_.now();
    return pkt;
}

void
Network::offerPacket(const PacketPtr &pkt)
{
    ++stats_.packetsCreated;
    stats_.flitsCreated += pkt->sizeFlits;
    ++inFlight_;
    nics_[pkt->src]->offer(pkt);
}

PacketPtr
Network::makeRetransmit(const PacketPtr &orig)
{
    auto pkt = std::make_shared<Packet>();
    pkt->id = nextPacketId_++;
    pkt->src = orig->src;
    pkt->dest = orig->dest;
    pkt->destRouter = orig->destRouter;
    pkt->vnet = orig->vnet;
    pkt->sizeFlits = orig->sizeFlits;
    // Latency keeps measuring from the first creation: recovery time is
    // part of the packet's end-to-end story.
    pkt->createCycle = orig->createCycle;
    pkt->reliable = true;
    pkt->e2eSeq = orig->e2eSeq;
    pkt->attempt = orig->attempt + 1;
    pkt->origId = orig->origId;
    offerPacket(pkt);
    return pkt;
}

void
Network::setEjectListener(std::function<void(const PacketPtr &)> fn)
{
    ejectListener_ = std::move(fn);
}

void
Network::notifyEjected(const PacketPtr &pkt)
{
    SPIN_ASSERT(inFlight_ > 0, "eject without matching offer");
    --inFlight_;
    if (ejectListener_)
        ejectListener_(pkt);
}

void
Network::notifyLost(const PacketPtr &pkt)
{
    (void)pkt;
    if (StepShard *const sh = tlsStepShard) {
        // Parallel phase: stage the retirement; commitShards()
        // validates against the master in-flight count.
        ++sh->lost;
        return;
    }
    SPIN_ASSERT(inFlight_ > 0, "loss without matching offer");
    --inFlight_;
}

void
Network::beginMeasurement()
{
    stats_.reset(clock_.now());
    for (Link &l : links_)
        l.resetUses();
    usageWindowStart_ = clock_.now();
    // Windowed series restart with the measurement window, mirroring
    // the counter reset above (warmup windows would otherwise pollute
    // every report built from them).
    if (metrics_)
        metrics_->onMeasurementBegin(clock_.now());
}

obs::JsonValue
LinkUsage::toJson() const
{
    obs::JsonValue lu = obs::JsonValue::object();
    lu.set("flitCycles", obs::JsonValue(flitCycles));
    lu.set("probeCycles", obs::JsonValue(probeCycles));
    lu.set("moveCycles", obs::JsonValue(moveCycles));
    lu.set("idleCycles", obs::JsonValue(idleCycles));
    lu.set("totalCycles", obs::JsonValue(totalCycles));
    return lu;
}

LinkUsage
Network::linkUsage() const
{
    LinkUsage u;
    for (const Link &l : links_) {
        u.flitCycles += l.flitUses();
        u.probeCycles += l.probeUses();
        u.moveCycles += l.moveUses();
    }
    u.totalCycles = links_.size() * (clock_.now() - usageWindowStart_);
    const std::uint64_t used = u.flitCycles + u.probeCycles + u.moveCycles;
    u.idleCycles = u.totalCycles > used ? u.totalCycles - used : 0;
    return u;
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void
Network::setTracer(std::unique_ptr<obs::Tracer> tracer)
{
    tracer_ = std::move(tracer);
}

obs::Forensics &
Network::enableForensics(std::size_t max_records)
{
    forensics_ = std::make_unique<obs::Forensics>(max_records);
    return *forensics_;
}

obs::NetworkMetrics &
Network::enableMetrics(const obs::MetricsConfig &cfg,
                       std::unique_ptr<obs::MetricsSink> sink)
{
    if (metrics_)
        metrics_->finish(clock_.now());
    metrics_ =
        std::make_unique<obs::NetworkMetrics>(*this, cfg, std::move(sink));
    return *metrics_;
}

obs::PhaseProfiler &
Network::enableProfiler()
{
    if (!profiler_)
        profiler_ = std::make_unique<obs::PhaseProfiler>();
    return *profiler_;
}

obs::JsonValue
Network::telemetryJson() const
{
    obs::JsonValue root = obs::JsonValue::object();

    obs::JsonValue config = obs::JsonValue::object();
    config.set("name", obs::JsonValue(cfg_.name));
    config.set("scheme", obs::JsonValue(toString(cfg_.scheme)));
    config.set("routing", obs::JsonValue(routing_->name()));
    config.set("vnets", obs::JsonValue(cfg_.vnets));
    config.set("vcsPerVnet", obs::JsonValue(cfg_.vcsPerVnet));
    config.set("vcDepth", obs::JsonValue(cfg_.vcDepth));
    config.set("tDd", obs::JsonValue(cfg_.tDd));
    config.set("seed", obs::JsonValue(cfg_.seed));
    config.set("numRouters", obs::JsonValue(numRouters()));
    config.set("numNodes", obs::JsonValue(numNodes()));
    config.set("numLinks", obs::JsonValue(numLinks()));
    root.set("config", std::move(config));

    root.set("cycle", obs::JsonValue(clock_.now()));
    root.set("packetsInFlight", obs::JsonValue(inFlight_));
    root.set("stats", stats_.toJson());

    root.set("linkUsage", linkUsage().toJson());

    if (forensics_)
        root.set("forensics", forensics_->toJson());
    if (faults_)
        root.set("faults", faults_->toJson());
    if (metrics_) {
        obs::JsonValue m = obs::JsonValue::object();
        m.set("interval", obs::JsonValue(metrics_->config().interval));
        m.set("windows", obs::JsonValue(metrics_->windowsEmitted()));
        root.set("metrics", std::move(m));
    }
    // Wall-clock attribution is machine-dependent; it rides alongside
    // the deterministic sections and is never part of gated documents.
    if (profiler_)
        root.set("profile", profiler_->toJson());
    return root;
}

fault::FaultInjector &
Network::attachFaults(fault::FaultSchedule schedule)
{
    faults_ =
        std::make_unique<fault::FaultInjector>(*this, std::move(schedule));
    for (auto &rp : routers_)
        rp->setFaultInjector(faults_.get());
    return *faults_;
}

bool
Network::dumpTelemetry(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << telemetryJson().dump(2) << '\n';
    return static_cast<bool>(os);
}

} // namespace spin
