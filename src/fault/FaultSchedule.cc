#include "fault/FaultSchedule.hh"

#include <algorithm>

#include "common/Hash.hh"
#include "common/Logging.hh"

namespace spin::fault
{

namespace
{

bool
kindFromString(const std::string &s, FaultKind &out)
{
    if (s == "link")
        out = FaultKind::LinkFail;
    else if (s == "router")
        out = FaultKind::RouterFail;
    else if (s == "corrupt")
        out = FaultKind::Corrupt;
    else if (s == "drop")
        out = FaultKind::Drop;
    else if (s == "random-links")
        out = FaultKind::RandomLinks;
    else if (s == "link-outage")
        out = FaultKind::LinkOutage;
    else if (s == "router-outage")
        out = FaultKind::RouterOutage;
    else if (s == "flaky")
        out = FaultKind::Flaky;
    else if (s == "flaky-links")
        out = FaultKind::FlakyLinks;
    else
        return false;
    return true;
}

bool
wantInt(const obs::JsonValue &ev, const char *key, std::int64_t &out,
        std::string &err, std::size_t idx)
{
    const obs::JsonValue *v = ev.find(key);
    if (!v || !v->isNumber()) {
        err = "faults: event " + std::to_string(idx) +
              " needs an integer '" + key + "'";
        return false;
    }
    out = static_cast<std::int64_t>(v->asNumber());
    return true;
}

bool
wantProb(const obs::JsonValue &ev, double &out, std::string &err,
         std::size_t idx)
{
    const obs::JsonValue *v = ev.find("prob");
    if (!v || !v->isNumber() || v->asNumber() <= 0.0 ||
        v->asNumber() > 1.0) {
        err = "faults: event " + std::to_string(idx) +
              " needs a 'prob' in (0, 1]";
        return false;
    }
    out = v->asNumber();
    return true;
}

/**
 * Canonical undirected router pairs that carry at least one link, in
 * ascending (lo, hi) order -- the candidate set the random macros pick
 * from and the unit a LinkFail event kills.
 */
std::vector<std::pair<RouterId, RouterId>>
linkPairs(const Topology &topo)
{
    std::vector<std::pair<RouterId, RouterId>> pairs;
    for (const LinkSpec &l : topo.links()) {
        const RouterId lo = std::min(l.src, l.dst);
        const RouterId hi = std::max(l.src, l.dst);
        pairs.emplace_back(lo, hi);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
}

/** Draw @p count distinct pairs from @p pairs without replacement. */
std::vector<std::pair<RouterId, RouterId>>
drawPairs(std::vector<std::pair<RouterId, RouterId>> remaining, int count,
          std::uint64_t seed)
{
    std::vector<std::pair<RouterId, RouterId>> out;
    std::uint64_t s = seed;
    const int n = std::min<int>(count, static_cast<int>(remaining.size()));
    for (int i = 0; i < n; ++i) {
        const std::size_t pick = splitmix64(s++) % remaining.size();
        out.push_back(remaining[pick]);
        remaining.erase(remaining.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    }
    return out;
}

} // namespace

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::LinkFail:     return "link";
      case FaultKind::RouterFail:   return "router";
      case FaultKind::Corrupt:      return "corrupt";
      case FaultKind::Drop:         return "drop";
      case FaultKind::RandomLinks:  return "random-links";
      case FaultKind::LinkOutage:   return "link-outage";
      case FaultKind::RouterOutage: return "router-outage";
      case FaultKind::Flaky:        return "flaky";
      case FaultKind::FlakyLinks:   return "flaky-links";
    }
    return "?";
}

std::string
describe(const FaultEvent &e)
{
    const std::string at = " @ cycle " + std::to_string(e.cycle);
    switch (e.kind) {
      case FaultKind::LinkFail:
        return "link " + std::to_string(e.src) + "<->" +
               std::to_string(e.dst) + " failed" + at;
      case FaultKind::RouterFail:
        return "router " + std::to_string(e.router) + " failed" + at;
      case FaultKind::Corrupt:
        return "corrupt on link " + std::to_string(e.src) + "->" +
               std::to_string(e.dst) + at;
      case FaultKind::Drop:
        return "drop on link " + std::to_string(e.src) + "->" +
               std::to_string(e.dst) + at;
      case FaultKind::RandomLinks:
        return std::to_string(e.count) + " random links" + at;
      case FaultKind::LinkOutage:
        return "link " + std::to_string(e.src) + "<->" +
               std::to_string(e.dst) + " outage for " +
               std::to_string(e.duration) + " cycles" + at;
      case FaultKind::RouterOutage:
        return "router " + std::to_string(e.router) + " outage for " +
               std::to_string(e.duration) + " cycles" + at;
      case FaultKind::Flaky:
        return "flaky link " + std::to_string(e.src) + "<->" +
               std::to_string(e.dst) + " for " +
               std::to_string(e.window) + " cycles" + at;
      case FaultKind::FlakyLinks:
        return std::to_string(e.count) + " flaky links for " +
               std::to_string(e.window) + " cycles" + at;
    }
    return "?";
}

obs::JsonValue
FaultEvent::toJson() const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("cycle", JsonValue(cycle));
    o.set("kind", JsonValue(toString(kind)));
    switch (kind) {
      case FaultKind::LinkFail:
      case FaultKind::Corrupt:
      case FaultKind::Drop:
        o.set("src", JsonValue(src));
        o.set("dst", JsonValue(dst));
        break;
      case FaultKind::RouterFail:
        o.set("router", JsonValue(router));
        break;
      case FaultKind::RandomLinks:
        o.set("count", JsonValue(count));
        o.set("seed", JsonValue(seed));
        break;
      case FaultKind::LinkOutage:
        o.set("src", JsonValue(src));
        o.set("dst", JsonValue(dst));
        o.set("duration", JsonValue(duration));
        break;
      case FaultKind::RouterOutage:
        o.set("router", JsonValue(router));
        o.set("duration", JsonValue(duration));
        break;
      case FaultKind::Flaky:
        o.set("src", JsonValue(src));
        o.set("dst", JsonValue(dst));
        o.set("window", JsonValue(window));
        o.set("prob", JsonValue(prob));
        o.set("seed", JsonValue(seed));
        break;
      case FaultKind::FlakyLinks:
        o.set("count", JsonValue(count));
        o.set("seed", JsonValue(seed));
        o.set("window", JsonValue(window));
        o.set("prob", JsonValue(prob));
        break;
    }
    return o;
}

bool
FaultSchedule::fromJson(const obs::JsonValue &doc, FaultSchedule &out,
                        std::string &err)
{
    if (!doc.isObject()) {
        err = "faults: top-level document must be a JSON object";
        return false;
    }
    const obs::JsonValue &schema = doc["schema"];
    if (!schema.isString() || schema.asString() != kSchema) {
        err = std::string("faults: 'schema' must be '") + kSchema + "'";
        return false;
    }
    const obs::JsonValue *events = doc.find("events");
    if (!events || !events->isArray()) {
        err = "faults: 'events' must be an array";
        return false;
    }

    FaultSchedule s;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const obs::JsonValue &ev = events->at(i);
        if (!ev.isObject()) {
            err = "faults: event " + std::to_string(i) +
                  " must be an object";
            return false;
        }
        FaultEvent e;
        const obs::JsonValue &kind = ev["kind"];
        if (!kind.isString() ||
            !kindFromString(kind.asString(), e.kind)) {
            err = "faults: event " + std::to_string(i) +
                  " has unknown kind (want link, router, corrupt, "
                  "drop, random-links, link-outage, router-outage, "
                  "flaky, or flaky-links)";
            return false;
        }
        const obs::JsonValue *cyc = ev.find("cycle");
        if (!cyc || !cyc->isNumber() || cyc->asNumber() < 0) {
            err = "faults: event " + std::to_string(i) +
                  " needs a non-negative 'cycle'";
            return false;
        }
        e.cycle = cyc->asU64();

        std::int64_t v = 0;
        switch (e.kind) {
          case FaultKind::LinkFail:
          case FaultKind::Corrupt:
          case FaultKind::Drop:
            if (!wantInt(ev, "src", v, err, i))
                return false;
            e.src = static_cast<RouterId>(v);
            if (!wantInt(ev, "dst", v, err, i))
                return false;
            e.dst = static_cast<RouterId>(v);
            break;
          case FaultKind::RouterFail:
            if (!wantInt(ev, "router", v, err, i))
                return false;
            e.router = static_cast<RouterId>(v);
            break;
          case FaultKind::RandomLinks:
            if (!wantInt(ev, "count", v, err, i))
                return false;
            if (v < 1) {
                err = "faults: event " + std::to_string(i) +
                      " needs count >= 1";
                return false;
            }
            e.count = static_cast<int>(v);
            if (!wantInt(ev, "seed", v, err, i))
                return false;
            e.seed = ev["seed"].asU64(); // all 64 bits, exactly
            break;
          case FaultKind::LinkOutage:
            if (!wantInt(ev, "src", v, err, i))
                return false;
            e.src = static_cast<RouterId>(v);
            if (!wantInt(ev, "dst", v, err, i))
                return false;
            e.dst = static_cast<RouterId>(v);
            if (!wantInt(ev, "duration", v, err, i) || v < 1) {
                if (err.empty())
                    err = "faults: event " + std::to_string(i) +
                          " needs duration >= 1";
                return false;
            }
            e.duration = static_cast<Cycle>(v);
            break;
          case FaultKind::RouterOutage:
            if (!wantInt(ev, "router", v, err, i))
                return false;
            e.router = static_cast<RouterId>(v);
            if (!wantInt(ev, "duration", v, err, i) || v < 1) {
                if (err.empty())
                    err = "faults: event " + std::to_string(i) +
                          " needs duration >= 1";
                return false;
            }
            e.duration = static_cast<Cycle>(v);
            break;
          case FaultKind::Flaky:
            if (!wantInt(ev, "src", v, err, i))
                return false;
            e.src = static_cast<RouterId>(v);
            if (!wantInt(ev, "dst", v, err, i))
                return false;
            e.dst = static_cast<RouterId>(v);
            if (!wantInt(ev, "window", v, err, i) || v < 1) {
                if (err.empty())
                    err = "faults: event " + std::to_string(i) +
                          " needs window >= 1";
                return false;
            }
            e.window = static_cast<Cycle>(v);
            if (!wantProb(ev, e.prob, err, i))
                return false;
            if (const obs::JsonValue *sd = ev.find("seed");
                sd && sd->isNumber())
                e.seed = sd->asU64();
            break;
          case FaultKind::FlakyLinks:
            if (!wantInt(ev, "count", v, err, i))
                return false;
            if (v < 1) {
                err = "faults: event " + std::to_string(i) +
                      " needs count >= 1";
                return false;
            }
            e.count = static_cast<int>(v);
            if (!wantInt(ev, "seed", v, err, i))
                return false;
            e.seed = ev["seed"].asU64(); // all 64 bits, exactly
            if (!wantInt(ev, "window", v, err, i) || v < 1) {
                if (err.empty())
                    err = "faults: event " + std::to_string(i) +
                          " needs window >= 1";
                return false;
            }
            e.window = static_cast<Cycle>(v);
            if (!wantProb(ev, e.prob, err, i))
                return false;
            break;
        }
        s.events.push_back(e);
    }
    out = std::move(s);
    return true;
}

bool
FaultSchedule::fromFile(const std::string &path, FaultSchedule &out,
                        std::string &err)
{
    const obs::JsonValue doc = obs::readJsonFile(path, err);
    return !doc.isNull() && fromJson(doc, out, err);
}

obs::JsonValue
FaultSchedule::toJson() const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("schema", JsonValue(kSchema));
    JsonValue evs = JsonValue::array();
    for (const FaultEvent &e : events)
        evs.push(e.toJson());
    o.set("events", std::move(evs));
    return o;
}

std::string
FaultSchedule::validate(const Topology &topo) const
{
    const int nr = topo.numRouters();
    const auto pairs = linkPairs(topo);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent &e = events[i];
        const std::string at = "faults: event " + std::to_string(i);
        switch (e.kind) {
          case FaultKind::LinkFail:
          case FaultKind::Corrupt:
          case FaultKind::Drop:
          case FaultKind::LinkOutage:
          case FaultKind::Flaky: {
            if (e.src < 0 || e.src >= nr || e.dst < 0 || e.dst >= nr)
                return at + ": link endpoint out of range";
            const auto key = std::make_pair(std::min(e.src, e.dst),
                                            std::max(e.src, e.dst));
            if (!std::binary_search(pairs.begin(), pairs.end(), key))
                return at + ": no link between routers " +
                       std::to_string(e.src) + " and " +
                       std::to_string(e.dst);
            break;
          }
          case FaultKind::RouterFail:
          case FaultKind::RouterOutage:
            if (e.router < 0 || e.router >= nr)
                return at + ": router out of range";
            break;
          case FaultKind::RandomLinks:
          case FaultKind::FlakyLinks:
            if (e.count < 1 ||
                e.count > static_cast<int>(pairs.size())) {
                return at + ": count must be in [1, " +
                       std::to_string(pairs.size()) + "]";
            }
            break;
        }
    }
    return "";
}

std::vector<FaultEvent>
FaultSchedule::concretize(const Topology &topo) const
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : events) {
        if (e.kind != FaultKind::RandomLinks &&
            e.kind != FaultKind::FlakyLinks) {
            out.push_back(e);
            continue;
        }
        // Seed-derived selection of distinct physical links: draw from
        // the canonical sorted pair list without replacement.
        const auto picked = drawPairs(linkPairs(topo), e.count, e.seed);
        for (std::size_t i = 0; i < picked.size(); ++i) {
            FaultEvent f;
            f.cycle = e.cycle;
            f.src = picked[i].first;
            f.dst = picked[i].second;
            if (e.kind == FaultKind::RandomLinks) {
                f.kind = FaultKind::LinkFail;
            } else {
                f.kind = FaultKind::Flaky;
                f.window = e.window;
                f.prob = e.prob;
                // Per-link Bernoulli stream seed, decorrelated from the
                // draw order so adding a link never reshuffles others.
                f.seed = splitmix64(e.seed ^ (0x5f1aCull + i));
            }
            out.push_back(f);
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
    return out;
}

FaultSchedule
FaultSchedule::randomLinkFailures(int count, std::uint64_t seed,
                                  Cycle cycle)
{
    FaultSchedule s;
    FaultEvent e;
    e.cycle = cycle;
    e.kind = FaultKind::RandomLinks;
    e.count = count;
    e.seed = seed;
    s.events.push_back(e);
    return s;
}

std::shared_ptr<const Topology>
degradedTopology(const Topology &base,
                 const std::vector<FaultEvent> &concrete)
{
    std::vector<char> deadRouter(base.numRouters(), 0);
    std::vector<std::pair<RouterId, RouterId>> deadPairs;
    for (const FaultEvent &e : concrete) {
        if (e.kind == FaultKind::RouterFail) {
            deadRouter[e.router] = 1;
        } else if (e.kind == FaultKind::LinkFail) {
            deadPairs.emplace_back(std::min(e.src, e.dst),
                                   std::max(e.src, e.dst));
        }
    }
    std::sort(deadPairs.begin(), deadPairs.end());

    auto topo = std::make_shared<Topology>();
    std::vector<int> radix;
    radix.reserve(base.numRouters());
    for (RouterId r = 0; r < base.numRouters(); ++r)
        radix.push_back(base.radix(r));
    topo->setRouters(radix);

    for (const LinkSpec &l : base.links()) {
        if (deadRouter[l.src] || deadRouter[l.dst])
            continue;
        const auto key = std::make_pair(std::min(l.src, l.dst),
                                        std::max(l.src, l.dst));
        if (std::binary_search(deadPairs.begin(), deadPairs.end(), key))
            continue;
        topo->addLink(l);
    }
    for (const NicAttach &a : base.nics())
        topo->attachNic(a.node, a.router, a.port);

    topo->mesh = base.mesh;
    topo->dragonfly = base.dragonfly;
    topo->ring = base.ring;
    topo->name = base.name + "+faults";
    topo->finalizePartial();
    return topo;
}

} // namespace spin::fault
