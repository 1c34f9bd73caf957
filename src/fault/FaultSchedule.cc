#include "fault/FaultSchedule.hh"

#include <algorithm>

#include "common/Hash.hh"
#include "common/Logging.hh"

namespace spin::fault
{

namespace
{

/** How fromJson reads a field of an event. */
enum class Need : std::uint8_t
{
    Any,      //!< any value the field's type holds
    Positive, //!< at least 1
    Optional, //!< may be absent, leaving the field at its default
};

/**
 * Call @p f(key, field, need) for each JSON field of @p e's kind in echo
 * order: its target's fields, then its effect's. The one list of every
 * kind's fields, which toJson writes and fromJson reads.
 */
template <class Event, class F>
void
forEachField(Event &e, F &&f)
{
    const FaultKindName &row = enumRow(e.kind);
    switch (row.target) {
      case FaultTarget::Link:
      case FaultTarget::DirectedLink:
        f("src", e.src, Need::Any);
        f("dst", e.dst, Need::Any);
        break;
      case FaultTarget::Router:
        f("router", e.router, Need::Any);
        break;
      case FaultTarget::SeedPicked:
        f("count", e.count, Need::Positive);
        f("seed", e.seed, Need::Any);
        break;
    }
    switch (row.effect) {
      case FaultEffect::Fail:
      case FaultEffect::CorruptArm:
      case FaultEffect::DropArm:
        break;
      case FaultEffect::Outage:
        f("duration", e.duration, Need::Positive);
        break;
      case FaultEffect::Flaky:
        f("window", e.window, Need::Positive);
        f("prob", e.prob, Need::Any);
        if (row.target != FaultTarget::SeedPicked)
            f("seed", e.seed, Need::Optional);
        break;
    }
}

/**
 * Read integer field @p key of @p ev into @p out, exactly: a whole
 * number that @p out's type holds and that meets @p need. Returns what
 * the event needs instead ("an integer 'src'", "count >= 1"), or ""
 * when the field is read.
 */
template <class T>
std::string
readField(const obs::JsonValue &ev, const char *key, T &out, Need need)
{
    const obs::JsonValue *v = ev.find(key);
    if (!v && need == Need::Optional)
        return "";
    if (v && v->isNumber() && need == Need::Positive && v->asNumber() < 1)
        return std::string(key) + " >= 1";
    if (!v || !v->asInteger(out))
        return std::string("an integer '") + key + "'";
    return "";
}

/** The one floating-point field: a probability in (0, 1]. */
std::string
readField(const obs::JsonValue &ev, const char *key, double &out, Need)
{
    const obs::JsonValue *v = ev.find(key);
    if (!v || !v->isNumber() || v->asNumber() <= 0.0 ||
        v->asNumber() > 1.0)
        return std::string("a '") + key + "' in (0, 1]";
    out = v->asNumber();
    return "";
}

/** The link-target kind with @p effect: what a seed-picked macro with
 *  that effect expands into. */
FaultKind
linkKindWith(FaultEffect effect)
{
    for (const FaultKindName &row : enumTable<FaultKind>()) {
        if (row.target == FaultTarget::Link && row.effect == effect)
            return row.value;
    }
    SPIN_PANIC("no link-target fault kind has a macro's effect");
}

/**
 * Canonical undirected router pairs that carry at least one link, in
 * ascending (lo, hi) order -- the candidate set the macros pick from
 * and the unit a link target hits.
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

std::string
describe(const FaultEvent &e)
{
    const FaultKindName &row = enumRow(e.kind);
    const auto n = [](auto v) { return std::to_string(v); };
    // A macro names its links by count, and its effect with them.
    const bool macro = row.target == FaultTarget::SeedPicked;
    std::string links;
    switch (row.target) {
      case FaultTarget::Link:
        links = "link " + n(e.src) + "<->" + n(e.dst);
        break;
      case FaultTarget::DirectedLink:
        links = "link " + n(e.src) + "->" + n(e.dst);
        break;
      case FaultTarget::Router:
        links = "router " + n(e.router);
        break;
      case FaultTarget::SeedPicked:
        links = n(e.count) +
                (row.effect == FaultEffect::Fail ? " random" : " flaky") +
                " links";
        break;
    }
    std::string what;
    switch (row.effect) {
      case FaultEffect::Fail:
        what = macro ? links : links + " failed";
        break;
      case FaultEffect::CorruptArm:
        what = "corrupt on " + links;
        break;
      case FaultEffect::DropArm:
        what = "drop on " + links;
        break;
      case FaultEffect::Outage:
        what = links + " outage for " + n(e.duration) + " cycles";
        break;
      case FaultEffect::Flaky:
        what = (macro ? "" : "flaky ") + links + " for " + n(e.window) +
               " cycles";
        break;
    }
    return what + " @ cycle " + n(e.cycle);
}

obs::JsonValue
FaultEvent::toJson() const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("cycle", JsonValue(cycle));
    o.set("kind", JsonValue(toString(kind)));
    forEachField(*this, [&o](const char *key, const auto &field, Need) {
        o.set(key, JsonValue(field));
    });
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
        const std::string at = "faults: event " + std::to_string(i);
        if (!ev.isObject()) {
            err = at + " must be an object";
            return false;
        }
        FaultEvent e;
        const obs::JsonValue &kind = ev["kind"];
        if (!kind.isString() || !fromString(kind.asString(), e.kind)) {
            err = at + " has unknown kind (want " + nameList<FaultKind>() +
                  ")";
            return false;
        }
        const obs::JsonValue *cyc = ev.find("cycle");
        if (!cyc || !cyc->asInteger(e.cycle)) {
            err = at + " needs a non-negative 'cycle'";
            return false;
        }
        std::string need;
        forEachField(e, [&](const char *key, auto &field, Need n) {
            if (need.empty())
                need = readField(ev, key, field, n);
        });
        if (!need.empty()) {
            err = at + " needs " + need;
            return false;
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
        switch (enumRow(e.kind).target) {
          case FaultTarget::Link:
          case FaultTarget::DirectedLink: {
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
          case FaultTarget::Router:
            if (e.router < 0 || e.router >= nr)
                return at + ": router out of range";
            break;
          case FaultTarget::SeedPicked:
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
        const FaultKindName &row = enumRow(e.kind);
        if (row.target != FaultTarget::SeedPicked) {
            out.push_back(e);
            continue;
        }
        // Seed-derived selection of distinct physical links: draw from
        // the canonical sorted pair list without replacement.
        const auto picked = drawPairs(linkPairs(topo), e.count, e.seed);
        const FaultKind kind = linkKindWith(row.effect);
        for (std::size_t i = 0; i < picked.size(); ++i) {
            FaultEvent f;
            f.cycle = e.cycle;
            f.kind = kind;
            f.src = picked[i].first;
            f.dst = picked[i].second;
            f.duration = e.duration;
            f.window = e.window;
            f.prob = e.prob;
            // Per-link Bernoulli stream seed, decorrelated from the draw
            // order so adding a link never reshuffles others.
            if (row.effect == FaultEffect::Flaky)
                f.seed = splitmix64(e.seed ^ (0x5f1aCull + i));
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
        const FaultKindName &row = enumRow(e.kind);
        if (row.effect != FaultEffect::Fail)
            continue;
        if (row.target == FaultTarget::Router)
            deadRouter[e.router] = 1;
        else if (row.target == FaultTarget::Link)
            deadPairs.emplace_back(std::min(e.src, e.dst),
                                   std::max(e.src, e.dst));
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
