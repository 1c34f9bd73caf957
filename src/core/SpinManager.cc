#include "core/SpinManager.hh"

#include <algorithm>
#include <unordered_map>

#include "common/Logging.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "obs/Tracer.hh"
#include "router/Router.hh"

namespace spin
{

int
probeHopCap(const Network &net)
{
    const Topology &topo = net.topo();
    int transitVcs = 0;
    for (RouterId r = 0; r < topo.numRouters(); ++r) {
        const int nic_ports = static_cast<int>(topo.nodesAt(r).size());
        transitVcs += (topo.radix(r) - nic_ports) * net.config().totalVcs();
    }
    return std::min(transitVcs, 4 * topo.numRouters());
}

SpinManager::SpinManager(Network &net)
    : net_(net),
      prio_(net.numRouters(),
            net.config().epochMultiplier * net.config().tDd),
      tDd_(net.config().tDd),
      maxProbeHops_(probeHopCap(net))
{
    units_.reserve(net.numRouters());
    for (RouterId r = 0; r < net.numRouters(); ++r) {
        Router &router = net.router(r);
        auto unit = std::make_unique<SpinUnit>(*this, router);
        units_.push_back(unit.get());
        router.setSpinUnit(std::move(unit));
    }
    smLines_.resize(net.numLinks());
}

void
SpinManager::scheduleSend(Cycle when, SmSend send)
{
    scheduled_.emplace_back(when, std::move(send));
}

void
SpinManager::smPhase(Cycle now)
{
    if (smsInFlight_ == 0 && scheduled_.empty())
        return; // no SM anywhere: nothing below can fire

    // 1. Collect arrivals across all links.
    struct Arrival
    {
        RouterId router;
        PortId inport;
        SpecialMsg sm;
    };
    std::vector<Arrival> arrivals;
    if (smsInFlight_ != 0) {
        for (int li = 0; li < static_cast<int>(smLines_.size()); ++li) {
            if (smLines_[li].empty())
                continue;
            const LinkSpec &spec = net_.link(li).spec();
            smLines_[li].drainInto(now, [&](SpecialMsg &sm) {
                --smsInFlight_;
                // SMs in flight toward a router that died mid-wire are
                // lost with it (the dead unit must not process them).
                if (net_.faults() && net_.faults()->routerDead(spec.dst))
                    return;
                arrivals.push_back(Arrival{spec.dst, spec.dstPort,
                                           std::move(sm)});
            });
        }
    }

    std::vector<SmSend> sends;

    if (!arrivals.empty()) {
        // Per-router processing order: SM class priority, then sender
        // dynamic priority (paper Sec. IV-C1).
        std::stable_sort(arrivals.begin(), arrivals.end(),
            [&](const Arrival &a, const Arrival &b) {
                if (a.router != b.router)
                    return a.router < b.router;
                const int ca = classPriority(a.sm.type);
                const int cb = classPriority(b.sm.type);
                if (ca != cb)
                    return ca > cb;
                return priorityOf(a.sm.sender, now) >
                       priorityOf(b.sm.sender, now);
            });
        for (Arrival &a : arrivals)
            units_[a.router]->processSm(a.sm, a.inport, sends);
    }

    // 2. FSM-scheduled emissions that are due.
    for (std::size_t i = 0; i < scheduled_.size();) {
        if (scheduled_[i].first <= now) {
            sends.push_back(std::move(scheduled_[i].second));
            scheduled_[i] = std::move(scheduled_.back());
            scheduled_.pop_back();
        } else {
            ++i;
        }
    }

    if (!sends.empty())
        launch(sends, now);
}

void
SpinManager::launch(std::vector<SmSend> &sends, Cycle now)
{
    // Model-checker interception point: each SM about to contend may be
    // delayed a cycle or dropped, exploring schedules (launch-order
    // races, FAvORS upsets, lossy wires) the deterministic rules below
    // would never produce on their own.
    if (smHook_) {
        std::size_t w = 0;
        for (std::size_t r = 0; r < sends.size(); ++r) {
            switch (smHook_(sends[r], now)) {
              case SmAction::Deliver:
                if (w != r)
                    sends[w] = std::move(sends[r]);
                ++w;
                break;
              case SmAction::Delay:
                scheduled_.emplace_back(now + 1, std::move(sends[r]));
                break;
              case SmAction::Drop:
                ++net_.stats().smContentionDrops;
                break;
            }
        }
        sends.resize(w);
        if (sends.empty())
            return;
    }

    // Group by physical link; one winner per link per cycle, everything
    // else is dropped (bufferless traversal).
    std::sort(sends.begin(), sends.end(),
        [&](const SmSend &a, const SmSend &b) {
            if (a.from != b.from)
                return a.from < b.from;
            if (a.outport != b.outport)
                return a.outport < b.outport;
            const int ca = classPriority(a.sm.type);
            const int cb = classPriority(b.sm.type);
            if (ca != cb)
                return ca > cb;
            const int pa = priorityOf(a.sm.sender, now);
            const int pb = priorityOf(b.sm.sender, now);
            if (pa != pb)
                return pa > pb;
            return a.sm.sender < b.sm.sender;
        });

    Stats &st = net_.stats();
    obs::Tracer *tr = net_.trace();
    std::size_t i = 0;
    while (i < sends.size()) {
        std::size_t j = i + 1;
        while (j < sends.size() && sends[j].from == sends[i].from &&
               sends[j].outport == sends[i].outport) {
            ++j;
        }
        if (tr) {
            for (std::size_t k = i + 1; k < j; ++k)
                tr->spin(now, "sm_contention_drop", sends[k].from,
                         toString(sends[k].sm.type), sends[k].sm.sender);
        }
        // sends[i] is the winner of this link's contention group.
        SmSend &win = sends[i];
        const int li = net_.linkIndexOf(win.from, win.outport);
        if (li >= 0 && net_.faults() && net_.faults()->linkFailed(li)) {
            // The wire is gone: the whole group is lost. The sender's
            // FSM recovers through its normal timeout path.
            st.smContentionDrops += j - i;
            if (tr)
                tr->spin(now, "sm_fault_drop", win.from,
                         toString(win.sm.type), win.sm.sender);
            i = j;
            continue;
        }
        if (li >= 0) {
            Link &link = net_.link(li);
            link.occupySm(now, win.sm.type == SmType::Probe
                          ? LinkUse::Probe : LinkUse::Move);
            smLines_[li].push(now + link.latency(), std::move(win.sm));
            ++smsInFlight_;
            st.smContentionDrops += j - i - 1;
        } else {
            // Should not happen: requests only ever target wired ports.
            SPIN_WARN("SM launched at unwired port ", win.outport,
                      " of router ", win.from, "; dropped");
            st.smContentionDrops += j - i;
        }
        i = j;
    }
}

void
SpinManager::spinPhase(Cycle now)
{
    // Gather every frozen entry whose committed spin cycle is now.
    struct Entry
    {
        RouterId r;
        SpinUnit::FrozenEntry fe;
        RouterId source;
        RouterId downRouter = kInvalidId;
        PortId downInport = kInvalidId;
        int targetIdx = -1;        // frozen entry we rotate into
        VcId fallbackVc = kInvalidId;
        bool valid = true;
    };
    std::vector<Entry> entries;
    std::vector<RouterId> involved;
    for (SpinUnit *u : units_) {
        const VictimCtx &v = u->victim();
        if (!v.active || v.spinCycle != now)
            continue;
        involved.push_back(u->router().id());
        for (const auto &fe : u->frozenEntries())
            entries.push_back(Entry{u->router().id(), fe, v.source,
                                    kInvalidId, kInvalidId, -1,
                                    kInvalidId, true});
    }
    if (entries.empty())
        return;

    const Topology &topo = net_.topo();
    const NetworkConfig &cfg = net_.config();

    // Index frozen entries by (router, inport) for target lookup. With
    // multiple VCs one loop can pass through two VCs of the same
    // in-port, so each slot holds a list.
    auto key = [](RouterId r, PortId p) {
        return (static_cast<std::uint64_t>(r) << 16) |
               static_cast<std::uint64_t>(p);
    };
    std::unordered_map<std::uint64_t, std::vector<int>> atInport;
    for (int i = 0; i < static_cast<int>(entries.size()); ++i)
        atInport[key(entries[i].r, entries[i].fe.inport)].push_back(i);

    // Resolve each entry's rotation target. Every frozen entry vacates
    // exactly once and is filled at most once, so targets are claimed
    // exclusively; likewise idle fallback VCs.
    std::vector<char> claimedEntry(entries.size(), 0);
    std::unordered_map<std::uint64_t, std::vector<VcId>> claimedIdle;
    for (Entry &e : entries) {
        const LinkSpec *l = topo.outLink(e.r, e.fe.outport);
        SPIN_ASSERT(l, "frozen toward an unwired port");
        e.downRouter = l->dst;
        e.downInport = l->dstPort;
        const auto it = atInport.find(key(e.downRouter, e.downInport));
        if (it != atInport.end()) {
            for (const int t : it->second) {
                if (entries[t].source == e.source && !claimedEntry[t]) {
                    e.targetIdx = t;
                    claimedEntry[t] = 1;
                    break;
                }
            }
            if (e.targetIdx >= 0)
                continue;
        }
        // No loop member vacates downstream; fall back to an idle VC
        // there if one exists (defensive path, see DESIGN.md).
        const Packet &pkt =
            *net_.router(e.r).input(e.fe.inport).vc(e.fe.vc).owner();
        const OutputUnit &out = net_.router(e.r).output(e.fe.outport);
        const VcId base = pkt.vnet * cfg.vcsPerVnet;
        const std::uint64_t dkey = key(e.downRouter, e.downInport);
        auto &taken = claimedIdle[dkey];
        for (VcId v = base; v < base + cfg.vcsPerVnet; ++v) {
            if (!out.isIdle(v))
                continue;
            if (std::find(taken.begin(), taken.end(), v) != taken.end())
                continue;
            e.fallbackVc = v;
            taken.push_back(v);
            break;
        }
        if (e.fallbackVc == kInvalidId)
            e.valid = false;
    }

    // Safety fixpoint: an entry is executable only if its target VC is
    // vacated by another executable entry (or is idle).
    bool changed = true;
    while (changed) {
        changed = false;
        for (Entry &e : entries) {
            if (e.valid && e.targetIdx >= 0 &&
                !entries[e.targetIdx].valid) {
                e.valid = false;
                changed = true;
            }
        }
    }

    // Stats: one spin per recovery source that executes, plus the
    // false-positive check (could any member have advanced normally?).
    Stats &st = net_.stats();
    std::vector<RouterId> sources;
    for (const Entry &e : entries) {
        if (e.valid &&
            std::find(sources.begin(), sources.end(), e.source) ==
                sources.end()) {
            sources.push_back(e.source);
        }
    }
    for (const RouterId src : sources) {
        ++st.spins;
        bool could_advance = false;
        int members = 0;
        for (const Entry &e : entries) {
            if (e.source != src || !e.valid)
                continue;
            ++members;
            if (could_advance)
                continue;
            const Packet &pkt =
                *net_.router(e.r).input(e.fe.inport).vc(e.fe.vc).owner();
            const OutputUnit &out = net_.router(e.r).output(e.fe.outport);
            const VcId base = pkt.vnet * cfg.vcsPerVnet;
            if (out.hasIdleVcIn(base, base + cfg.vcsPerVnet - 1))
                could_advance = true;
        }
        if (could_advance)
            ++st.falsePositiveSpins;
        if (obs::Tracer *t = net_.trace())
            t->spin(now, "spin_exec", src,
                    could_advance ? "false_positive" : nullptr, members);
    }

    // Which frozen entries get refilled this cycle? An entry's own VC
    // is refilled exactly when a valid entry claimed it as its target.
    std::vector<char> refilled(entries.size(), 0);
    for (const Entry &e : entries) {
        if (e.valid && e.targetIdx >= 0)
            refilled[e.targetIdx] = 1;
    }

    // Execute.
    std::vector<int> executedAt(net_.numRouters(), 0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (!e.valid)
            continue;
        const VcId tvc = e.targetIdx >= 0
            ? entries[e.targetIdx].fe.vc
            : e.fallbackVc;
        net_.router(e.r).forceSend(e.fe.inport, e.fe.vc, e.fe.outport,
                                   tvc, refilled[i] != 0);
        ++executedAt[e.r];
    }
    // SkipCancelUnfreeze (spin_model --mutate): "forget" to release the
    // entries the safety fixpoint cancelled and to notify their units.
    // The stale-victim audit invariant must flag the leaked freezes.
    const bool skip_cancel =
        mutation_ == ProtocolMutation::SkipCancelUnfreeze;
    for (const Entry &e : entries) {
        if (!e.valid) {
            if (!skip_cancel)
                units_[e.r]->unfreeze(e.fe.inport, e.fe.outport);
            ++st.spinsCancelled;
            if (obs::Tracer *t = net_.trace())
                t->spin(now, "spin_cancel", e.r, nullptr, e.fe.inport,
                        e.fe.vc);
        }
    }
    for (const RouterId r : involved) {
        if (executedAt[r] > 0)
            units_[r]->onSpinExecuted(now);
        else if (!skip_cancel)
            units_[r]->onSpinCancelled(now);
    }
}

void
SpinManager::fsmTick(Cycle now)
{
    for (SpinUnit *u : units_)
        u->tick(now);
}

} // namespace spin
