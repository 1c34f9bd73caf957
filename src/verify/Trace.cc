#include "verify/Trace.hh"

namespace spin::verify
{

namespace
{

constexpr const char *kSchema = "spin-model-trace/v1";

const char *
actionName(SmAction a)
{
    switch (a) {
      case SmAction::Deliver: return "deliver";
      case SmAction::Delay:   return "delay";
      case SmAction::Drop:    return "drop";
    }
    return "?";
}

bool
actionFromName(const std::string &s, SmAction &out)
{
    if (s == "deliver") { out = SmAction::Deliver; return true; }
    if (s == "delay")   { out = SmAction::Delay;   return true; }
    if (s == "drop")    { out = SmAction::Drop;    return true; }
    return false;
}

const char *
smTypeName(SmType t)
{
    switch (t) {
      case SmType::Probe:     return "probe";
      case SmType::Move:      return "move";
      case SmType::ProbeMove: return "probe_move";
      case SmType::KillMove:  return "kill_move";
    }
    return "?";
}

bool
smTypeFromName(const std::string &s, SmType &out)
{
    if (s == "probe")      { out = SmType::Probe;     return true; }
    if (s == "move")       { out = SmType::Move;      return true; }
    if (s == "probe_move") { out = SmType::ProbeMove; return true; }
    if (s == "kill_move")  { out = SmType::KillMove;  return true; }
    return false;
}

bool
mutationFromName(const std::string &s, ProtocolMutation &out)
{
    if (s == "none") {
        out = ProtocolMutation::None;
        return true;
    }
    if (s == "skip-kill-move") {
        out = ProtocolMutation::SkipKillMove;
        return true;
    }
    if (s == "skip-cancel-unfreeze") {
        out = ProtocolMutation::SkipCancelUnfreeze;
        return true;
    }
    return false;
}

const obs::JsonValue *
need(const obs::JsonValue &v, const char *key, std::string &err)
{
    const obs::JsonValue *m = v.find(key);
    if (!m) {
        err = std::string("missing field \"") + key + "\"";
        return nullptr;
    }
    return m;
}

} // namespace

bool
Choice::operator==(const Choice &o) const
{
    return cycle == o.cycle && type == o.type && sender == o.sender &&
           outport == o.outport && nth == o.nth && action == o.action;
}

bool
Choice::matches(const SmSend &send, Cycle now, int nth_seen) const
{
    return now == cycle && send.sm.type == type &&
           send.sm.sender == sender && send.outport == outport &&
           nth_seen == nth;
}

obs::JsonValue
choiceToJson(const Choice &c)
{
    obs::JsonValue o = obs::JsonValue::object();
    o.set("cycle", static_cast<std::uint64_t>(c.cycle));
    o.set("type", smTypeName(c.type));
    o.set("sender", static_cast<std::int64_t>(c.sender));
    o.set("outport", static_cast<std::int64_t>(c.outport));
    o.set("nth", static_cast<std::int64_t>(c.nth));
    o.set("action", actionName(c.action));
    return o;
}

bool
choiceFromJson(const obs::JsonValue &v, Choice &out, std::string &err)
{
    if (!v.isObject()) {
        err = "choice is not an object";
        return false;
    }
    const obs::JsonValue *m = nullptr;
    if (!(m = need(v, "cycle", err)))
        return false;
    out.cycle = m->asU64();
    if (!(m = need(v, "type", err)))
        return false;
    if (!smTypeFromName(m->asString(), out.type)) {
        err = "unknown SM type \"" + m->asString() + "\"";
        return false;
    }
    if (!(m = need(v, "sender", err)))
        return false;
    out.sender = static_cast<RouterId>(m->asNumber());
    if (!(m = need(v, "outport", err)))
        return false;
    out.outport = static_cast<PortId>(m->asNumber());
    if (!(m = need(v, "nth", err)))
        return false;
    out.nth = static_cast<int>(m->asNumber());
    if (!(m = need(v, "action", err)))
        return false;
    if (!actionFromName(m->asString(), out.action)) {
        err = "unknown action \"" + m->asString() + "\"";
        return false;
    }
    return true;
}

obs::JsonValue
runSpecToJson(const RunSpec &r)
{
    obs::JsonValue o = obs::JsonValue::object();
    o.set("scenario", r.scenario);
    o.set("mutation", toString(r.mutation));
    if (r.faultCycle == kNeverCycle)
        o.set("faultCycle", obs::JsonValue());
    else
        o.set("faultCycle", static_cast<std::uint64_t>(r.faultCycle));
    obs::JsonValue arr = obs::JsonValue::array();
    for (const Choice &c : r.choices)
        arr.push(choiceToJson(c));
    o.set("choices", std::move(arr));
    return o;
}

bool
runSpecFromJson(const obs::JsonValue &v, RunSpec &out, std::string &err)
{
    if (!v.isObject()) {
        err = "run spec is not an object";
        return false;
    }
    const obs::JsonValue *m = nullptr;
    if (!(m = need(v, "scenario", err)))
        return false;
    out.scenario = m->asString();
    if (!(m = need(v, "mutation", err)))
        return false;
    if (!mutationFromName(m->asString(), out.mutation)) {
        err = "unknown mutation \"" + m->asString() + "\"";
        return false;
    }
    if (!(m = need(v, "faultCycle", err)))
        return false;
    out.faultCycle = m->isNull() ? kNeverCycle : m->asU64();
    if (!(m = need(v, "choices", err)))
        return false;
    if (!m->isArray()) {
        err = "\"choices\" is not an array";
        return false;
    }
    out.choices.clear();
    for (std::size_t i = 0; i < m->size(); ++i) {
        Choice c;
        if (!choiceFromJson(m->at(i), c, err))
            return false;
        out.choices.push_back(c);
    }
    return true;
}

obs::JsonValue
traceToJson(const Violation &v)
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", kSchema);
    doc.set("kind", v.kind);
    doc.set("message", v.message);
    doc.set("cycle", static_cast<std::uint64_t>(v.cycle));
    doc.set("run", runSpecToJson(v.run));
    return doc;
}

bool
traceFromJson(const obs::JsonValue &doc, Violation &out, std::string &err)
{
    if (!doc.isObject()) {
        err = "trace is not an object";
        return false;
    }
    const obs::JsonValue *m = nullptr;
    if (!(m = need(doc, "schema", err)))
        return false;
    if (m->asString() != kSchema) {
        err = "unexpected schema \"" + m->asString() + "\" (want " +
              kSchema + ")";
        return false;
    }
    if (!(m = need(doc, "kind", err)))
        return false;
    out.kind = m->asString();
    if (!(m = need(doc, "message", err)))
        return false;
    out.message = m->asString();
    if (!(m = need(doc, "cycle", err)))
        return false;
    out.cycle = m->asU64();
    if (!(m = need(doc, "run", err)))
        return false;
    return runSpecFromJson(*m, out.run, err);
}

bool
traceFromFile(const std::string &path, Violation &out, std::string &err)
{
    const obs::JsonValue doc = obs::readJsonFile(path, err);
    return !doc.isNull() && traceFromJson(doc, out, err);
}

bool
traceToFile(const Violation &v, const std::string &path)
{
    return obs::writeJsonFile(path, traceToJson(v));
}

} // namespace spin::verify
