#include "fault/FaultInjector.hh"

#include <algorithm>

#include "common/Hash.hh"
#include "common/Logging.hh"
#include "network/Network.hh"
#include "obs/Forensics.hh"
#include "obs/Tracer.hh"
#include "router/Router.hh"

namespace spin::fault
{

namespace
{

/** Uniform double in [0, 1) from a 64-bit hash (53 mantissa bits). */
double
toUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

FaultInjector::FaultInjector(Network &net, FaultSchedule schedule)
    : net_(net), schedule_(std::move(schedule))
{
    const std::string verr = schedule_.validate(net_.topo());
    if (!verr.empty())
        SPIN_FATAL(verr);
    concrete_ = schedule_.concretize(net_.topo());
    failedLink_.assign(net_.numLinks(), 0);
    deadRouter_.assign(net_.numRouters(), 0);
    pendingCorrupt_.assign(net_.numLinks(), 0);
    pendingDrop_.assign(net_.numLinks(), 0);
    outageEnd_.assign(net_.numLinks(), 0);
    flakyEnd_.assign(net_.numLinks(), 0);
    flakyProb_.assign(net_.numLinks(), 0.0);
    flakySeed_.assign(net_.numLinks(), 0);
    flakyTx_.assign(net_.numLinks(), 0);
}

const Topology &
FaultInjector::degraded() const
{
    return degraded_ ? *degraded_ : net_.topo();
}

bool
FaultInjector::outPortAlive(RouterId r, PortId p) const
{
    const int li = net_.linkIndexOf(r, p);
    if (li < 0)
        return true; // NIC / unwired: not a router-to-router channel
    return !failedLink_[static_cast<std::size_t>(li)] &&
           !deadRouter_[static_cast<std::size_t>(
               net_.link(li).spec().dst)];
}

void
FaultInjector::tick(Cycle now)
{
    if (nextIdx_ >= concrete_.size() || concrete_[nextIdx_].cycle > now)
        return;

    bool permanentApplied = false;
    while (nextIdx_ < concrete_.size() &&
           concrete_[nextIdx_].cycle <= now) {
        const FaultEvent &e = concrete_[nextIdx_];
        switch (e.kind) {
          case FaultKind::LinkFail:
            applyLinkFail(e);
            permanentApplied = true;
            break;
          case FaultKind::RouterFail:
            applyRouterFail(e, now);
            permanentApplied = true;
            break;
          case FaultKind::Corrupt:
          case FaultKind::Drop:
            applyTransient(e);
            break;
          case FaultKind::LinkOutage:
          case FaultKind::RouterOutage:
            applyOutage(e);
            break;
          case FaultKind::Flaky:
            applyFlaky(e);
            break;
          case FaultKind::RandomLinks:
          case FaultKind::FlakyLinks:
            SPIN_FATAL("unexpanded macro event in injector");
        }
        noteApplied(e, now);
        ++nextIdx_;
    }

    if (permanentApplied) {
        anyPermanent_ = true;
        degraded_ = degradedTopology(
            net_.topo(),
            {concrete_.begin(),
             concrete_.begin() + static_cast<std::ptrdiff_t>(nextIdx_)});
    }
}

void
FaultInjector::failLinkIndex(int li)
{
    if (li < 0 || failedLink_[static_cast<std::size_t>(li)])
        return;
    failedLink_[static_cast<std::size_t>(li)] = 1;
    net_.link(li).fail();
}

void
FaultInjector::applyLinkFail(const FaultEvent &e)
{
    for (int li = 0; li < net_.numLinks(); ++li) {
        const LinkSpec &s = net_.link(li).spec();
        const bool match = (s.src == e.src && s.dst == e.dst) ||
                           (s.src == e.dst && s.dst == e.src);
        if (match)
            failLinkIndex(li);
    }
    ++net_.stats().linksFailed;
}

void
FaultInjector::applyRouterFail(const FaultEvent &e, Cycle now)
{
    if (deadRouter_[static_cast<std::size_t>(e.router)])
        return;
    deadRouter_[static_cast<std::size_t>(e.router)] = 1;
    for (int li = 0; li < net_.numLinks(); ++li) {
        const LinkSpec &s = net_.link(li).spec();
        if (s.src == e.router || s.dst == e.router)
            failLinkIndex(li);
    }
    net_.router(e.router).markDead(now);
    ++net_.stats().routersFailed;
}

void
FaultInjector::applyTransient(const FaultEvent &e)
{
    auto &pending =
        e.kind == FaultKind::Corrupt ? pendingCorrupt_ : pendingDrop_;
    // Arm the directed channel src -> dst; fall back to the reverse
    // direction when the spec named the pair the other way round.
    int armed = -1;
    for (int pass = 0; pass < 2 && armed < 0; ++pass) {
        const RouterId from = pass == 0 ? e.src : e.dst;
        const RouterId to = pass == 0 ? e.dst : e.src;
        for (int li = 0; li < net_.numLinks(); ++li) {
            const LinkSpec &s = net_.link(li).spec();
            if (s.src == from && s.dst == to) {
                ++pending[static_cast<std::size_t>(li)];
                armed = li;
                break;
            }
        }
    }
    ++net_.stats().transientFaults;
}

void
FaultInjector::applyOutage(const FaultEvent &e)
{
    // A down link (or a down router's links) garbles everything that
    // crosses it during the window; control traffic is assumed on a
    // protected sideband, so credits and SMs keep flowing.
    const Cycle end = e.cycle + e.duration;
    for (int li = 0; li < net_.numLinks(); ++li) {
        const LinkSpec &s = net_.link(li).spec();
        bool hit;
        if (e.kind == FaultKind::RouterOutage)
            hit = s.src == e.router || s.dst == e.router;
        else
            hit = (s.src == e.src && s.dst == e.dst) ||
                  (s.src == e.dst && s.dst == e.src);
        if (hit) {
            auto &slot = outageEnd_[static_cast<std::size_t>(li)];
            slot = std::max(slot, end);
        }
    }
    ++net_.stats().transientFaults;
}

void
FaultInjector::applyFlaky(const FaultEvent &e)
{
    const Cycle end = e.cycle + e.window;
    for (int li = 0; li < net_.numLinks(); ++li) {
        const LinkSpec &s = net_.link(li).spec();
        const bool hit = (s.src == e.src && s.dst == e.dst) ||
                         (s.src == e.dst && s.dst == e.src);
        if (!hit)
            continue;
        const auto i = static_cast<std::size_t>(li);
        flakyEnd_[i] = std::max(flakyEnd_[i], end);
        flakyProb_[i] = e.prob;
        // Decorrelate the two directions (and parallel links) without
        // depending on arm order.
        flakySeed_[i] = splitmix64(e.seed ^ (0x1000003ull * (li + 1)));
    }
    ++net_.stats().transientFaults;
}

void
FaultInjector::noteApplied(const FaultEvent &e, Cycle now)
{
    if (obs::Tracer *t = net_.trace()) {
        obs::TraceEvent te;
        te.cycle = now;
        te.category = obs::kCatFault;
        switch (e.kind) {
          case FaultKind::LinkFail:     te.name = "link_fail"; break;
          case FaultKind::RouterFail:   te.name = "router_fail"; break;
          case FaultKind::Corrupt:      te.name = "corrupt_arm"; break;
          case FaultKind::Drop:         te.name = "drop_arm"; break;
          case FaultKind::RandomLinks:  te.name = "random_links"; break;
          case FaultKind::LinkOutage:   te.name = "link_outage"; break;
          case FaultKind::RouterOutage: te.name = "router_outage"; break;
          case FaultKind::Flaky:        te.name = "flaky_arm"; break;
          case FaultKind::FlakyLinks:   te.name = "flaky_links"; break;
        }
        const bool routerKind = e.kind == FaultKind::RouterFail ||
                                e.kind == FaultKind::RouterOutage;
        te.router = routerKind ? e.router : e.src;
        te.arg0 = routerKind ? -1 : e.dst;
        t->record(te);
    }
    if (obs::Forensics *f = net_.forensics())
        f->noteFault(now, describe(e));
}

bool
FaultInjector::corruptAttempt(std::size_t li, Cycle t)
{
    if (t < outageEnd_[li])
        return true;
    if (t < flakyEnd_[li]) {
        const std::uint64_t draw =
            splitmix64(flakySeed_[li] ^ ++flakyTx_[li]);
        if (toUnit(draw) < flakyProb_[li])
            return true;
    }
    return false;
}

void
FaultInjector::traceFlitEvent(const char *name, int li, const Packet &pkt,
                              Cycle now, std::int64_t arg1)
{
    obs::Tracer *t = net_.trace();
    if (!t)
        return;
    obs::TraceEvent te;
    te.cycle = now;
    te.category = obs::kCatFault;
    te.name = name;
    te.router = net_.link(li).spec().src;
    te.packet = pkt.id;
    te.arg0 = li;
    te.arg1 = arg1;
    t->record(te);
}

Cycle
FaultInjector::onFlitTraverse(int li, Packet &pkt, Cycle now)
{
    const auto i = static_cast<std::size_t>(li);
    bool oneShot = false;
    if (pendingCorrupt_[i] > 0) {
        --pendingCorrupt_[i];
        oneShot = true;
    }
    const bool transientWindow = now < outageEnd_[i] || now < flakyEnd_[i];

    Cycle extra = 0;
    if (oneShot || transientWindow) {
        const ReliabilityConfig &rel = net_.config().reliability;
        if (!rel.enabled) {
            // Legacy semantics: one transmission, corruption delivered
            // as-is.
            if (oneShot || corruptAttempt(i, now)) {
                pkt.corrupted = true;
                traceFlitEvent("flit_corrupt", li, pkt, now, -1);
            }
        } else {
            // Link-level retry, modeled analytically: attempt k starts
            // one link round trip (downstream CRC check + NACK + resend)
            // after attempt k-1, so a window that ends mid-recovery
            // stops corrupting later attempts. The one-shot arm
            // corrupts only the first attempt.
            const Cycle rtt = 2 * net_.link(li).latency() + 1;
            int n = 0;
            while (n <= rel.maxLinkRetries &&
                   ((n == 0 && oneShot) || corruptAttempt(i, now + n * rtt)))
                ++n;
            if (n > 0) {
                Stats &st = net_.stats();
                st.crcFails += static_cast<std::uint64_t>(n);
                if (n <= rel.maxLinkRetries) {
                    // Recovered at the link layer: the flit arrives
                    // clean, n round trips late.
                    st.linkRetries += static_cast<std::uint64_t>(n);
                    pkt.linkRetried = true;
                    traceFlitEvent("flit_retry", li, pkt, now, n);
                    extra = static_cast<Cycle>(n) * rtt;
                } else {
                    // Retry budget exhausted: deliver the last attempt
                    // poisoned and let the end-to-end layer recover the
                    // packet.
                    st.linkRetries +=
                        static_cast<std::uint64_t>(rel.maxLinkRetries);
                    pkt.corrupted = true;
                    traceFlitEvent("flit_corrupt", li, pkt, now, n);
                }
            }
        }
    }

    if (pendingDrop_[i] > 0) {
        --pendingDrop_[i];
        pkt.faultDropped = true;
        traceFlitEvent("flit_drop", li, pkt, now, -1);
    }
    return extra;
}

void
FaultInjector::onRotationTraverse(int li, Packet &pkt, Cycle now, int flits)
{
    const auto i = static_cast<std::size_t>(li);
    if (pendingDrop_[i] > 0) {
        --pendingDrop_[i];
        pkt.faultDropped = true;
        traceFlitEvent("flit_drop", li, pkt, now, -1);
    }

    bool oneShot = false;
    if (pendingCorrupt_[i] > 0) {
        --pendingCorrupt_[i];
        oneShot = true;
    }
    if (!oneShot && now >= outageEnd_[i] && now >= flakyEnd_[i])
        return;

    // Rotations stream the whole packet and are never retried (a spin
    // cannot stall on a NACK without breaking the synchronized move),
    // so any corrupted flit poisons the packet for the end-to-end layer.
    int bad = oneShot ? 1 : 0;
    for (int k = 0; k < flits; ++k)
        bad += corruptAttempt(i, now + static_cast<Cycle>(k));
    if (bad == 0)
        return;
    pkt.corrupted = true;
    if (net_.config().reliability.enabled)
        net_.stats().crcFails += static_cast<std::uint64_t>(bad);
    traceFlitEvent("flit_corrupt", li, pkt, now, bad);
}

obs::JsonValue
FaultInjector::toJson() const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("schedule", schedule_.toJson());
    JsonValue applied = JsonValue::array();
    for (std::size_t i = 0; i < nextIdx_; ++i)
        applied.push(concrete_[i].toJson());
    o.set("applied", std::move(applied));
    o.set("pending",
          JsonValue(static_cast<std::uint64_t>(concrete_.size() -
                                               nextIdx_)));
    int failed = 0;
    for (const char f : failedLink_)
        failed += f;
    o.set("failedLinks", JsonValue(failed));
    int dead = 0;
    for (const char d : deadRouter_)
        dead += d;
    o.set("deadRouters", JsonValue(dead));
    return o;
}

} // namespace spin::fault
