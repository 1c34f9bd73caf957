#include "verify/Trace.hh"

#include <concepts>
#include <limits>
#include <string>

namespace spin::verify
{

namespace
{

constexpr const char *kSchema = "spin-model-trace/v1";

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

/** The string field @p key of @p v; nullptr, with @p err set, when it
 *  is missing or not a string. */
const std::string *
needString(const obs::JsonValue &v, const char *key, std::string &err)
{
    const obs::JsonValue *m = need(v, key, err);
    if (m && !m->isString()) {
        err = std::string("field \"") + key + "\" is not a string";
        return nullptr;
    }
    return m ? &m->asString() : nullptr;
}

/** Read the integer field @p key of @p v exactly into @p out; false,
 *  with @p err set, when it is missing or @p out cannot hold it. */
template <std::integral T>
bool
needInteger(const obs::JsonValue &v, const char *key, T &out,
            std::string &err)
{
    const obs::JsonValue *m = need(v, key, err);
    if (m && !m->asInteger(out)) {
        err = std::string("field \"") + key + "\" is not an integer in [" +
              std::to_string(std::numeric_limits<T>::min()) + ", " +
              std::to_string(std::numeric_limits<T>::max()) + "]";
        return false;
    }
    return m != nullptr;
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
    o.set("type", toString(c.type));
    o.set("sender", static_cast<std::int64_t>(c.sender));
    o.set("outport", static_cast<std::int64_t>(c.outport));
    o.set("nth", static_cast<std::int64_t>(c.nth));
    o.set("action", toString(c.action));
    return o;
}

bool
choiceFromJson(const obs::JsonValue &v, Choice &out, std::string &err)
{
    if (!v.isObject()) {
        err = "choice is not an object";
        return false;
    }
    if (!needInteger(v, "cycle", out.cycle, err))
        return false;
    const std::string *type = needString(v, "type", err);
    if (!type)
        return false;
    if (!fromString(*type, out.type)) {
        err = "unknown SM type \"" + *type + "\"";
        return false;
    }
    if (!needInteger(v, "sender", out.sender, err) ||
        !needInteger(v, "outport", out.outport, err) ||
        !needInteger(v, "nth", out.nth, err)) {
        return false;
    }
    const std::string *action = needString(v, "action", err);
    if (!action)
        return false;
    if (!fromString(*action, out.action)) {
        err = "unknown action \"" + *action + "\"";
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
    const std::string *scenario = needString(v, "scenario", err);
    if (!scenario)
        return false;
    out.scenario = *scenario;
    const std::string *mutation = needString(v, "mutation", err);
    if (!mutation)
        return false;
    if (!fromString(*mutation, out.mutation)) {
        err = "unknown mutation \"" + *mutation + "\"";
        return false;
    }
    const obs::JsonValue *m = need(v, "faultCycle", err);
    if (!m)
        return false;
    out.faultCycle = kNeverCycle;
    if (!m->isNull() && !needInteger(v, "faultCycle", out.faultCycle, err))
        return false;
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
    const std::string *schema = needString(doc, "schema", err);
    if (!schema)
        return false;
    if (*schema != kSchema) {
        err = "unexpected schema \"" + *schema + "\" (want " + kSchema +
              ")";
        return false;
    }
    const std::string *kind = needString(doc, "kind", err);
    if (!kind)
        return false;
    out.kind = *kind;
    const std::string *message = needString(doc, "message", err);
    if (!message)
        return false;
    out.message = *message;
    if (!needInteger(doc, "cycle", out.cycle, err))
        return false;
    const obs::JsonValue *run = need(doc, "run", err);
    return run && runSpecFromJson(*run, out.run, err);
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
