#include "exp/SweepSpec.hh"

#include <array>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <limits>
#include <optional>
#include <type_traits>

#include "common/Hash.hh"
#include "common/Logging.hh"
#include "topology/Dragonfly.hh"
#include "topology/Mesh.hh"
#include "topology/Ring.hh"
#include "topology/Torus.hh"

namespace spin::exp
{

namespace
{

/** Fixed-point rate text: the same for spec files and seed derivation. */
std::string
rateText(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", rate);
    return buf;
}

NetworkConfig
vnet1Cfg(const std::string &name, int vcs_per_vnet)
{
    NetworkConfig cfg;
    cfg.name = name;
    cfg.vnets = 1;
    cfg.vcsPerVnet = vcs_per_vnet;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = DeadlockScheme::Spin;
    return cfg;
}

/** A topology spec name, parsed but not built: mesh and torus use
 *  dim[0..1], a ring dim[0], a dragonfly its p, a, h, g (all zero for
 *  the paper's fabric). */
struct TopologyName
{
    enum Kind { Mesh, Torus, Ring, Dragonfly } kind = Mesh;
    std::array<int, 4> dim{};
};

/** The topology-name grammar; nullopt with @p err set when unknown. */
std::optional<TopologyName>
parseTopologyName(const std::string &name, std::string &err)
{
    int x = 0, y = 0, h = 0, g = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "mesh%dx%d%c", &x, &y, &tail) == 2 &&
        x >= 2 && y >= 2) {
        return TopologyName{TopologyName::Mesh, {x, y}};
    }
    if (std::sscanf(name.c_str(), "torus%dx%d%c", &x, &y, &tail) == 2 &&
        x >= 2 && y >= 2) {
        return TopologyName{TopologyName::Torus, {x, y}};
    }
    if (std::sscanf(name.c_str(), "ring%d%c", &x, &tail) == 1 && x >= 2)
        return TopologyName{TopologyName::Ring, {x}};
    if (name == "dragonfly")
        return TopologyName{TopologyName::Dragonfly, {}};
    // The name makeDragonfly gives the fabric it builds; the bounds are
    // the ones it enforces (x = p terminals, y = a routers per group).
    if (std::sscanf(name.c_str(), "dragonfly-p%da%dh%dg%d%c", &x, &y, &h,
                    &g, &tail) == 4 &&
        x >= 1 && y >= 2 && h >= 1 && g >= 2 &&
        g <= static_cast<long long>(y) * h + 1) {
        return TopologyName{TopologyName::Dragonfly, {x, y, h, g}};
    }
    err = "unknown topology '" + name +
          "' (want mesh<X>x<Y>, torus<X>x<Y>, ring<N>, dragonfly, or "
          "dragonfly-p<P>a<A>h<H>g<G>)";
    return std::nullopt;
}

} // namespace

std::uint64_t
deriveCellSeed(std::uint64_t seed_base, const std::string &preset,
               Pattern pattern, double rate, std::uint64_t seed_entry)
{
    std::uint64_t h = Fnv1a()
                          .bytes(preset)
                          .bytes(toString(pattern))
                          .bytes(rateText(rate))
                          .value();
    h ^= splitmix64(seed_entry);
    h ^= splitmix64(seed_base + 0x5851f42d4c957f2dull);
    const std::uint64_t s = splitmix64(h);
    return s ? s : 1; // a zero seed is legal but keep it distinctive
}

const std::vector<ConfigPreset> &
presetRegistry()
{
    static const std::vector<ConfigPreset> registry = [] {
        std::vector<ConfigPreset> all;
        for (auto &&group : {meshPresets3Vc(), meshPresets1Vc(),
                             dragonflyPresets3Vc(), dragonflyPresets1Vc()})
            for (const ConfigPreset &p : group)
                all.push_back(p);
        // The Fig. 9 spin-count sweeps run single-vnet routers.
        all.push_back({"MinAd_1vnet_1VC_SPIN",
                       vnet1Cfg("MinAd_1vnet_1VC_SPIN", 1),
                       RoutingKind::MinimalAdaptive});
        all.push_back({"MinAd_1vnet_3VC_SPIN",
                       vnet1Cfg("MinAd_1vnet_3VC_SPIN", 3),
                       RoutingKind::MinimalAdaptive});
        all.push_back({"UGAL_1vnet_3VC_SPIN",
                       vnet1Cfg("UGAL_1vnet_3VC_SPIN", 3),
                       RoutingKind::UgalSpin});
        return all;
    }();
    return registry;
}

const ConfigPreset *
findPreset(const std::string &name)
{
    for (const ConfigPreset &p : presetRegistry()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

std::shared_ptr<const Topology>
makeTopologyByName(const std::string &name, std::string &err)
{
    const std::optional<TopologyName> t = parseTopologyName(name, err);
    if (!t)
        return nullptr;
    const std::array<int, 4> &d = t->dim;
    switch (t->kind) {
      case TopologyName::Mesh:
        return std::make_shared<Topology>(makeMesh(d[0], d[1]));
      case TopologyName::Torus:
        return std::make_shared<Topology>(makeTorus(d[0], d[1]));
      case TopologyName::Ring:
        return std::make_shared<Topology>(makeRing(d[0]));
      case TopologyName::Dragonfly:
        break;
    }
    if (d[0] == 0)
        return std::make_shared<Topology>(makePaperDragonfly());
    return std::make_shared<Topology>(makeDragonfly(d[0], d[1], d[2], d[3]));
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

namespace
{

bool
wantString(const obs::JsonValue &doc, const char *key, std::string &out,
           std::string &err, bool required)
{
    const obs::JsonValue *v = doc.find(key);
    if (!v) {
        if (required)
            err = std::string("spec: missing required key '") + key + "'";
        return !required;
    }
    if (!v->isString()) {
        err = std::string("spec: '") + key + "' must be a string";
        return false;
    }
    out = v->asString();
    return true;
}

bool
wantNumber(const obs::JsonValue &doc, const char *key, double &out,
           std::string &err)
{
    const obs::JsonValue *v = doc.find(key);
    if (!v)
        return true;
    if (!v->isNumber()) {
        err = std::string("spec: '") + key + "' must be a number";
        return false;
    }
    out = v->asNumber();
    return true;
}

/** "from @p lo to T's max": the values an integer key takes. */
template <std::integral T>
std::string
integerRange(T lo)
{
    return "from " + std::to_string(lo) + " to " +
           std::to_string(std::numeric_limits<T>::max());
}

/** Read integer @p key exactly when present: a whole number from @p lo
 *  up that @p T holds, else an error naming the key. */
template <std::integral T>
bool
wantInteger(const obs::JsonValue &doc, const char *key, T &out,
            std::string &err,
            std::type_identity_t<T> lo = std::numeric_limits<T>::min())
{
    const obs::JsonValue *v = doc.find(key);
    if (!v)
        return true;
    T x{};
    if (!v->asInteger(x) || x < lo) {
        err = std::string("spec: '") + key + "' must be an integer " +
              integerRange(lo);
        return false;
    }
    out = x;
    return true;
}

/** Read the non-empty integer array @p key exactly when present, each
 *  element as wantInteger() reads a value. */
template <std::integral T>
bool
wantIntegerArray(const obs::JsonValue &doc, const char *key,
                 std::vector<T> &out, std::string &err,
                 std::type_identity_t<T> lo)
{
    const obs::JsonValue *v = doc.find(key);
    if (!v)
        return true;
    if (!v->isArray() || v->size() == 0) {
        err = std::string("spec: '") + key +
              "' must be a non-empty array of integers " + integerRange(lo);
        return false;
    }
    out.clear();
    for (std::size_t i = 0; i < v->size(); ++i) {
        T x{};
        if (!v->at(i).asInteger(x) || x < lo) {
            err = std::string("spec: '") + key +
                  "' must contain only integers " + integerRange(lo);
            return false;
        }
        out.push_back(x);
    }
    return true;
}

bool
wantStringArray(const obs::JsonValue &doc, const char *key,
                std::vector<std::string> &out, std::string &err)
{
    const obs::JsonValue *v = doc.find(key);
    if (!v) {
        err = std::string("spec: missing required key '") + key + "'";
        return false;
    }
    if (!v->isArray() || v->size() == 0) {
        err = std::string("spec: '") + key +
              "' must be a non-empty array of strings";
        return false;
    }
    out.clear();
    for (std::size_t i = 0; i < v->size(); ++i) {
        if (!v->at(i).isString()) {
            err = std::string("spec: '") + key +
                  "' must contain only strings";
            return false;
        }
        out.push_back(v->at(i).asString());
    }
    return true;
}

} // namespace

bool
SweepSpec::fromJson(const obs::JsonValue &doc, SweepSpec &out,
                    std::string &err)
{
    if (!doc.isObject()) {
        err = "spec: top-level document must be a JSON object";
        return false;
    }
    SweepSpec s;
    if (!wantString(doc, "name", s.name, err, true))
        return false;
    if (!wantString(doc, "topology", s.topology, err, true))
        return false;
    if (!wantStringArray(doc, "presets", s.presets, err))
        return false;

    std::vector<std::string> patternNames;
    if (!wantStringArray(doc, "patterns", patternNames, err))
        return false;
    s.patterns.clear();
    for (const std::string &pn : patternNames) {
        Pattern p;
        if (!patternFromString(pn, p)) {
            err = "spec: unknown pattern '" + pn + "'";
            return false;
        }
        s.patterns.push_back(p);
    }

    // rates: either an explicit array or a {lo, hi, points} ladder.
    const obs::JsonValue *rates = doc.find("rates");
    if (!rates) {
        err = "spec: missing required key 'rates'";
        return false;
    }
    s.rates.clear();
    if (rates->isArray() && rates->size() > 0) {
        for (std::size_t i = 0; i < rates->size(); ++i) {
            if (!rates->at(i).isNumber()) {
                err = "spec: 'rates' array must contain only numbers";
                return false;
            }
            s.rates.push_back(rates->at(i).asNumber());
        }
    } else if (rates->isObject()) {
        double lo = 0.0, hi = 0.0;
        int n = 0;
        if (!wantNumber(*rates, "lo", lo, err) ||
            !wantNumber(*rates, "hi", hi, err) ||
            !wantInteger(*rates, "points", n, err, 1)) {
            return false;
        }
        if (n < 1 || lo <= 0.0 || hi < lo) {
            err = "spec: rates ladder needs 0 < lo <= hi and points >= 1";
            return false;
        }
        if (n == 1) {
            s.rates.push_back(lo);
        } else {
            const double step = (hi - lo) / (n - 1);
            for (int i = 0; i < n; ++i)
                s.rates.push_back(lo + step * i);
        }
    } else {
        err = "spec: 'rates' must be a non-empty array or {lo,hi,points}";
        return false;
    }

    if (!wantIntegerArray(doc, "seeds", s.seeds, err, 0) ||
        !wantIntegerArray(doc, "faults", s.faults, err, 0)) {
        return false;
    }

    const obs::JsonValue *rel = doc.find("reliability");
    if (rel) {
        if (!rel->isArray() || rel->size() == 0) {
            err = "spec: 'reliability' must be a non-empty array of "
                  "\"off\"/\"on\"";
            return false;
        }
        s.reliability.clear();
        for (std::size_t i = 0; i < rel->size(); ++i) {
            const obs::JsonValue &e = rel->at(i);
            if (e.isString() && e.asString() == "off") {
                s.reliability.push_back(false);
            } else if (e.isString() && e.asString() == "on") {
                s.reliability.push_back(true);
            } else {
                err = "spec: 'reliability' entries must be \"off\" or "
                      "\"on\"";
                return false;
            }
        }
    }

    if (!wantInteger(doc, "warmup", s.warmup, err) ||
        !wantInteger(doc, "measure", s.measure, err, 1) ||
        !wantInteger(doc, "faultCycle", s.faultCycle, err) ||
        !wantNumber(doc, "latencyCap", s.latencyCap, err) ||
        !wantInteger(doc, "seedBase", s.seedBase, err)) {
        return false;
    }

    const std::string verr = s.validate();
    if (!verr.empty()) {
        err = verr;
        return false;
    }
    out = std::move(s);
    return true;
}

bool
SweepSpec::fromFile(const std::string &path, SweepSpec &out,
                    std::string &err)
{
    const obs::JsonValue doc = obs::readJsonFile(path, err);
    return !doc.isNull() && fromJson(doc, out, err);
}

obs::JsonValue
SweepSpec::toJson() const
{
    using obs::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("name", JsonValue(name));
    o.set("topology", JsonValue(topology));
    JsonValue ps = JsonValue::array();
    for (const std::string &p : presets)
        ps.push(JsonValue(p));
    o.set("presets", std::move(ps));
    JsonValue pats = JsonValue::array();
    for (const Pattern p : patterns)
        pats.push(JsonValue(toString(p)));
    o.set("patterns", std::move(pats));
    JsonValue rs = JsonValue::array();
    for (const double r : rates)
        rs.push(JsonValue(r));
    o.set("rates", std::move(rs));
    JsonValue ss = JsonValue::array();
    for (const std::uint64_t s : seeds)
        ss.push(JsonValue(s));
    o.set("seeds", std::move(ss));
    JsonValue fs = JsonValue::array();
    for (const int f : faults)
        fs.push(JsonValue(f));
    o.set("faults", std::move(fs));
    // Emitted only when non-default: the spec echo feeds the resume
    // fingerprint, and specs written before the dimension existed must
    // keep their caches valid.
    if (!(reliability.size() == 1 && !reliability[0])) {
        JsonValue rl = JsonValue::array();
        for (const bool b : reliability)
            rl.push(JsonValue(b ? "on" : "off"));
        o.set("reliability", std::move(rl));
    }
    o.set("faultCycle", JsonValue(faultCycle));
    o.set("warmup", JsonValue(warmup));
    o.set("measure", JsonValue(measure));
    o.set("latencyCap", JsonValue(latencyCap));
    o.set("seedBase", JsonValue(seedBase));
    return o;
}

std::string
SweepSpec::validate() const
{
    if (name.empty())
        return "spec: 'name' must be non-empty";
    std::string terr;
    if (!parseTopologyName(topology, terr))
        return "spec: " + terr;
    if (presets.empty())
        return "spec: 'presets' must be non-empty";
    for (const std::string &p : presets) {
        if (!findPreset(p)) {
            std::string known;
            for (const ConfigPreset &r : presetRegistry())
                known += (known.empty() ? "" : ", ") + r.name;
            return "spec: unknown preset '" + p + "' (known: " + known +
                   ")";
        }
    }
    if (patterns.empty())
        return "spec: 'patterns' must be non-empty";
    if (rates.empty())
        return "spec: 'rates' must be non-empty";
    for (const double r : rates) {
        if (!(r > 0.0) || r > 1.0)
            return "spec: rates must be in (0, 1] flits/node/cycle";
    }
    if (seeds.empty())
        return "spec: 'seeds' must be non-empty";
    if (faults.empty())
        return "spec: 'faults' must be non-empty";
    for (const int f : faults) {
        if (f < 0)
            return "spec: fault counts must be >= 0";
    }
    if (reliability.empty())
        return "spec: 'reliability' must be non-empty";
    if (measure < 1)
        return "spec: need measure >= 1";
    return "";
}

std::vector<Cell>
SweepSpec::expand() const
{
    std::vector<Cell> cells;
    cells.reserve(presets.size() * patterns.size() * rates.size() *
                  seeds.size() * faults.size() * reliability.size());
    for (const std::string &preset : presets) {
        for (const Pattern pattern : patterns) {
            for (const double rate : rates) {
                for (const std::uint64_t seed : seeds) {
                    for (const int fc : faults) {
                      for (const bool rel : reliability) {
                        Cell c;
                        c.index = cells.size();
                        c.preset = preset;
                        c.pattern = pattern;
                        c.rate = rate;
                        c.seed = seed;
                        c.faultCount = fc;
                        c.reliability = rel;
                        c.netSeed = deriveCellSeed(seedBase, preset,
                                                   pattern, rate, seed);
                        std::string id = preset + "__" +
                                         toString(pattern) + "__r" +
                                         rateText(rate) + "__s" +
                                         std::to_string(seed);
                        if (fc > 0) {
                            // Fault cells get a distinct seed and id;
                            // fc == 0 keeps both byte-identical to the
                            // pre-dimension expansion.
                            c.netSeed ^= splitmix64(
                                0xfa0175ull +
                                static_cast<std::uint64_t>(fc));
                            if (c.netSeed == 0)
                                c.netSeed = 1;
                            id += "__f" + std::to_string(fc);
                        }
                        // Reliability keeps the netSeed: the protocol
                        // changes delivery, not the offered traffic, so
                        // on/off cells stay directly comparable. The id
                        // suffix keeps cell files disjoint.
                        if (rel)
                            id += "__rel";
                        for (char &ch : id) {
                            const bool ok =
                                (ch >= 'a' && ch <= 'z') ||
                                (ch >= 'A' && ch <= 'Z') ||
                                (ch >= '0' && ch <= '9') || ch == '_' ||
                                ch == '-';
                            if (!ok)
                                ch = '_';
                        }
                        c.id = std::move(id);
                        cells.push_back(std::move(c));
                      }
                    }
                }
            }
        }
    }
    return cells;
}

// ---------------------------------------------------------------------
// Built-in specs
// ---------------------------------------------------------------------

namespace
{

struct BuiltinSpecText
{
    const char *name;
    const char *json;
};

/**
 * The shipped campaigns. Kept as JSON text so the spec parser is the
 * single source of truth (and permanently dogfooded); EXPERIMENTS.md
 * documents each one's paper artifact.
 */
const BuiltinSpecText kBuiltins[] = {
    {"fig06",
     R"({"name": "fig06", "topology": "dragonfly",
         "presets": ["UGAL_3VC_Dally", "UGAL_3VC_SPIN",
                     "Minimal_1VC_SPIN", "FAvORS_NMin_1VC_SPIN"],
         "patterns": ["uniform-random", "bit-complement", "transpose",
                      "tornado", "neighbor"],
         "rates": {"lo": 0.02, "hi": 0.32, "points": 6},
         "warmup": 1200, "measure": 2000, "latencyCap": 600.0})"},
    {"fig07",
     R"({"name": "fig07", "topology": "mesh8x8",
         "presets": ["WestFirst_3VC", "EscapeVC_3VC", "StaticBubble_3VC",
                     "MinAdaptive_3VC_SPIN", "WestFirst_1VC",
                     "FAvORS_Min_1VC_SPIN"],
         "patterns": ["uniform-random", "transpose", "bit-reverse",
                      "bit-rotation", "tornado"],
         "rates": {"lo": 0.02, "hi": 0.62, "points": 11},
         "warmup": 2000, "measure": 4000, "latencyCap": 400.0})"},
    {"fig08b",
     R"({"name": "fig08b", "topology": "mesh8x8",
         "presets": ["MinAdaptive_3VC_SPIN"],
         "patterns": ["uniform-random"],
         "rates": [0.01, 0.2, 0.5],
         "warmup": 2000, "measure": 10000, "latencyCap": 400.0})"},
    {"fig09-mesh",
     R"({"name": "fig09-mesh", "topology": "mesh8x8",
         "presets": ["MinAd_1vnet_1VC_SPIN", "MinAd_1vnet_3VC_SPIN"],
         "patterns": ["uniform-random"],
         "rates": [0.05, 0.15, 0.25, 0.35, 0.45],
         "warmup": 0, "measure": 20000, "latencyCap": 1e9})"},
    {"fig09-dragonfly",
     R"({"name": "fig09-dragonfly", "topology": "dragonfly",
         "presets": ["MinAd_1vnet_1VC_SPIN", "UGAL_1vnet_3VC_SPIN"],
         "patterns": ["bit-complement"],
         "rates": [0.05, 0.15, 0.25],
         "warmup": 0, "measure": 6000, "latencyCap": 1e9})"},
    // Reduced spec: the CI smoke gate and the README quickstart. Biased
    // toward at-and-below-knee loads where the idle-router fast path
    // matters; one deep-saturation point keeps SPIN recovery covered.
    {"ci-smoke",
     R"({"name": "ci-smoke", "topology": "mesh8x8",
         "presets": ["WestFirst_3VC", "MinAdaptive_3VC_SPIN",
                     "FAvORS_Min_1VC_SPIN"],
         "patterns": ["uniform-random", "transpose"],
         "rates": [0.02, 0.10, 0.18, 0.26, 0.34],
         "warmup": 300, "measure": 700, "latencyCap": 400.0})"},
    // Fault-dimension smoke: every cell runs once intact and once with
    // 2 and 4 random link failures injected mid-warmup. Two seeds so
    // CI exercises distinct degraded topologies each run.
    {"ci-faults",
     R"({"name": "ci-faults", "topology": "mesh8x8",
         "presets": ["WestFirst_3VC", "MinAdaptive_3VC_SPIN"],
         "patterns": ["uniform-random"],
         "rates": [0.05, 0.15],
         "seeds": [1, 2],
         "faults": [0, 2, 4], "faultCycle": 200,
         "warmup": 300, "measure": 700, "latencyCap": 400.0})"},
    // Thread-determinism gate on a 1024-router torus: CI runs it at
    // --threads 1 and --threads 4 and diffs the aggregates and metrics
    // streams. The 0.30 cell is past the torus's ~0.25 saturation
    // point (it accepts 0.028, benchmark/README.md) and is kept on
    // purpose: its blocked loops send SPIN probes across shards under
    // -t4. Do not read its host times as throughput.
    {"scaling-torus32",
     R"({"name": "scaling-torus32", "topology": "torus32x32",
         "presets": ["MinAdaptive_3VC_SPIN"],
         "patterns": ["uniform-random"],
         "rates": [0.10, 0.30],
         "warmup": 200, "measure": 600, "latencyCap": 1e9})"},
};

} // namespace

std::vector<std::string>
builtinSpecNames()
{
    std::vector<std::string> names;
    for (const BuiltinSpecText &b : kBuiltins)
        names.push_back(b.name);
    return names;
}

bool
builtinSpec(const std::string &name, SweepSpec &out)
{
    for (const BuiltinSpecText &b : kBuiltins) {
        if (name == b.name) {
            std::string perr;
            const obs::JsonValue doc =
                obs::JsonValue::parse(b.json, &perr);
            SPIN_ASSERT(!doc.isNull(), "builtin spec ", b.name,
                        " does not parse: ", perr);
            std::string serr;
            const bool ok = SweepSpec::fromJson(doc, out, serr);
            SPIN_ASSERT(ok, "builtin spec ", b.name, " invalid: ", serr);
            return true;
        }
    }
    return false;
}

} // namespace spin::exp
