/**
 * @file
 * Minimal self-contained JSON document model: an ordered value tree
 * with a writer (dump) and a strict recursive-descent parser, plus the
 * one file reader and writer every JSON document goes through. Exists
 * so telemetry export (Stats::toJson, trace sinks,
 * Network::dumpTelemetry) and its round-trip tests need no external
 * dependency.
 */

#ifndef SPINNOC_OBS_JSON_HH
#define SPINNOC_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spin::obs
{

/**
 * One JSON value. Objects preserve insertion order so dumped telemetry
 * is stable across runs (and diffs cleanly). A number built from a
 * 64-bit integer, or parsed from an integer literal, keeps it exactly
 * (seeds use all 64 bits); other numbers are doubles, dumped without a
 * decimal point when integral.
 */
class JsonValue
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    JsonValue(double d) : type_(Type::Number), num_(d) {}
    JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
    JsonValue(std::int64_t i)
        : JsonValue(static_cast<double>(i), static_cast<std::uint64_t>(i)) {}
    JsonValue(std::uint64_t u) : JsonValue(static_cast<double>(u), u) {}
    JsonValue(const char *s) : type_(Type::String), str_(s) {}
    JsonValue(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static JsonValue array() { return JsonValue(Type::Array); }
    static JsonValue object() { return JsonValue(Type::Object); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    std::uint64_t asU64() const
    {
        return exact_ ? int_ : static_cast<std::uint64_t>(num_);
    }
    const std::string &asString() const { return str_; }

    /// @name Array access
    /// @{
    std::size_t size() const
    {
        return type_ == Type::Array ? arr_.size() : members_.size();
    }
    const JsonValue &at(std::size_t i) const { return arr_[i]; }
    JsonValue &push(JsonValue v)
    {
        arr_.push_back(std::move(v));
        return arr_.back();
    }
    /// @}

    /// @name Object access (insertion-ordered)
    /// @{
    JsonValue &set(const std::string &key, JsonValue v)
    {
        for (auto &m : members_) {
            if (m.first == key) {
                m.second = std::move(v);
                return m.second;
            }
        }
        members_.emplace_back(key, std::move(v));
        return members_.back().second;
    }
    /** @return the member value, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const
    {
        for (const auto &m : members_) {
            if (m.first == key)
                return &m.second;
        }
        return nullptr;
    }
    JsonValue *find(const std::string &key)
    {
        for (auto &m : members_) {
            if (m.first == key)
                return &m.second;
        }
        return nullptr;
    }
    /** Drop the member @p key. @return true when it was present. */
    bool
    remove(const std::string &key)
    {
        for (auto it = members_.begin(); it != members_.end(); ++it) {
            if (it->first == key) {
                members_.erase(it);
                return true;
            }
        }
        return false;
    }
    /** Member value by key; a shared Null when absent. */
    const JsonValue &operator[](const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }
    std::vector<std::pair<std::string, JsonValue>> &members()
    {
        return members_;
    }
    /// @}

    /** Serialize. @p indent 0 emits one compact line; > 0 pretty-prints. */
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text. On failure returns Null and, when @p err is given,
     * stores a message with the byte offset of the problem.
     */
    static JsonValue parse(const std::string &text,
                           std::string *err = nullptr);

    /** Escape @p s as the *inside* of a JSON string literal. */
    static std::string escape(const std::string &s);

    /**
     * Append @p d to @p out exactly as dump() renders a number
     * (integral doubles without a decimal point). For hand-rolled
     * serializers that must stay byte-identical with dump(0).
     */
    static void appendNumber(std::string &out, double d);

  private:
    explicit JsonValue(Type t) : type_(t) {}
    JsonValue(double d, std::uint64_t i)
        : type_(Type::Number), exact_(true), num_(d), int_(i) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    /** int_ holds the number exactly (two's complement when num_ < 0). */
    bool exact_ = false;
    double num_ = 0.0;
    std::uint64_t int_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Read and parse the JSON document in @p path. On failure returns Null
 * with @p err set: the file cannot be opened, does not parse, or holds
 * the document `null`, which no reader accepts.
 */
JsonValue readJsonFile(const std::string &path, std::string &err);

/** Write @p doc to @p path as dump(2) plus a newline. @return false
 *  when the file cannot be written. */
bool writeJsonFile(const std::string &path, const JsonValue &doc);

} // namespace spin::obs

#endif // SPINNOC_OBS_JSON_HH
