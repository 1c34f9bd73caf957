#include "obs/Json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace spin::obs
{

namespace
{

const JsonValue kNull;

} // namespace

void
JsonValue::appendNumber(std::string &out, double d)
{
    if (std::isfinite(d) && d == std::floor(d) &&
        std::abs(d) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(d));
        out += buf;
    } else if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
    } else {
        out += "null"; // JSON has no inf/nan
    }
}

const JsonValue &
JsonValue::operator[](const std::string &key) const
{
    const JsonValue *v = find(key);
    return v ? *v : kNull;
}

std::string
JsonValue::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        if (!exact_)
            appendNumber(out, num_);
        else if (num_ < 0)
            out += std::to_string(static_cast<std::int64_t>(int_));
        else
            out += std::to_string(int_);
        break;
      case Type::String:
        out += '"';
        out += escape(str_);
        out += '"';
        break;
      case Type::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += '"';
            out += escape(members_[i].first);
            out += indent > 0 ? "\": " : "\":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace
{

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool fail(const std::string &msg)
    {
        if (err.empty())
            err = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool literal(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (text.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return fail(std::string("expected '") + lit + "'");
    }

    bool parseString(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("dangling escape");
            const char e = text[pos++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs are
                // passed through as two 3-byte sequences; telemetry
                // never emits them).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out = JsonValue::object();
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.set(key, std::move(v));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out = JsonValue::array();
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.push(std::move(v));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out = JsonValue(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out = JsonValue(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out = JsonValue();
            return true;
        }
        // Number. An integer literal that fits 64 bits stays exact.
        const char *first = text.c_str() + pos;
        char *end = nullptr;
        const double d = std::strtod(first, &end);
        if (end == first)
            return fail("unexpected character");
        pos = static_cast<std::size_t>(end - text.c_str());
        const auto whole = [end](std::from_chars_result r) {
            return r.ec == std::errc() && r.ptr == end;
        };
        std::uint64_t u = 0;
        std::int64_t i = 0;
        if (whole(std::from_chars(first, end, u)))
            out = JsonValue(u);
        else if (whole(std::from_chars(first, end, i)))
            out = JsonValue(i);
        else
            out = JsonValue(d);
        return true;
    }
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text, std::string *err)
{
    Parser p{text, 0, {}};
    JsonValue v;
    if (!p.parseValue(v)) {
        if (err)
            *err = p.err;
        return JsonValue();
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing garbage at offset " + std::to_string(p.pos);
        return JsonValue();
    }
    if (err)
        err->clear();
    return v;
}

} // namespace spin::obs
