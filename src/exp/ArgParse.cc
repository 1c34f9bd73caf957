#include "exp/ArgParse.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace spin::exp
{

bool
ArgSpec::spelledAs(const std::string &spelling) const
{
    std::size_t begin = 0;
    while (begin < name.size()) {
        std::size_t end = name.find(',', begin);
        if (end == std::string::npos)
            end = name.size();
        if (name.compare(begin, end - begin, spelling) == 0)
            return true;
        begin = name.find_first_not_of(' ', end + 1);
    }
    return false;
}

namespace
{

ArgSpec
makeSpec(const char *name, ArgSpec::Kind kind, const char *help,
         const char *meta)
{
    ArgSpec s;
    s.name = name;
    s.kind = kind;
    s.help = help;
    s.meta = meta;
    return s;
}

} // namespace

ArgSpec
argU64(const char *name, std::uint64_t *dst, const char *help, bool *seen)
{
    ArgSpec s = makeSpec(name, ArgSpec::Kind::U64, help, "N");
    s.u64 = dst;
    s.seen = seen;
    return s;
}

ArgSpec
argF64(const char *name, double *dst, const char *help)
{
    ArgSpec s = makeSpec(name, ArgSpec::Kind::F64, help, "X");
    s.f64 = dst;
    return s;
}

ArgSpec
argStr(const char *name, std::string *dst, const char *help,
       const char *meta)
{
    ArgSpec s = makeSpec(name, ArgSpec::Kind::Str, help, meta);
    s.str = dst;
    return s;
}

ArgSpec
argFlag(const char *name, bool *dst, const char *help)
{
    ArgSpec s = makeSpec(name, ArgSpec::Kind::Flag, help, "");
    s.flag = dst;
    return s;
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
parseF64(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

namespace
{

bool
applyValue(const ArgSpec &spec, const std::string &value, std::string &err)
{
    switch (spec.kind) {
      case ArgSpec::Kind::U64:
        if (!parseU64(value, *spec.u64)) {
            err = "invalid integer for " + spec.name + ": '" + value + "'";
            return false;
        }
        return true;
      case ArgSpec::Kind::F64:
        if (!parseF64(value, *spec.f64)) {
            err = "invalid number for " + spec.name + ": '" + value + "'";
            return false;
        }
        return true;
      case ArgSpec::Kind::Str:
        *spec.str = value;
        return true;
      case ArgSpec::Kind::Flag:
        err = spec.name + " takes no value";
        return false;
    }
    return false;
}

} // namespace

bool
parseArgs(int argc, char **argv, const std::vector<ArgSpec> &specs,
          std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            err = "unexpected positional argument: '" + arg + "'";
            return false;
        }

        std::string name = arg;
        std::string inlineValue;
        bool hasInline = false;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            inlineValue = arg.substr(eq + 1);
            hasInline = true;
        }

        const ArgSpec *spec = nullptr;
        for (const ArgSpec &s : specs) {
            if (s.spelledAs(name)) {
                spec = &s;
                break;
            }
        }
        // Short-option attached value: "-j4" means "-j 4".
        if (!spec && !hasInline && name.size() > 2 && name[1] != '-') {
            const std::string shortName = name.substr(0, 2);
            for (const ArgSpec &s : specs) {
                if (s.spelledAs(shortName) &&
                    s.kind != ArgSpec::Kind::Flag) {
                    spec = &s;
                    name = shortName;
                    inlineValue = arg.substr(2);
                    hasInline = true;
                    break;
                }
            }
        }
        if (!spec) {
            err = "unknown flag: " + name;
            return false;
        }
        if (spec->seen)
            *spec->seen = true;

        if (spec->kind == ArgSpec::Kind::Flag) {
            if (hasInline) {
                err = name + " takes no value";
                return false;
            }
            if (spec->flag)
                *spec->flag = true;
            continue;
        }

        std::string value;
        if (hasInline) {
            value = inlineValue;
        } else {
            if (i + 1 >= argc) {
                err = "missing value for " + name;
                return false;
            }
            value = argv[++i];
            // A '--'-prefixed token after a valued flag is almost
            // certainly a forgotten value, not a value that happens to
            // look like a flag; failing loudly beats silently consuming
            // the next option.
            if (value.rfind("--", 0) == 0) {
                err = "missing value for " + name + " (found flag '" +
                      value + "' instead)";
                return false;
            }
        }
        if (!applyValue(*spec, value, err))
            return false;
    }
    return true;
}

std::string
usage(const std::vector<ArgSpec> &specs)
{
    // Help text starts in one column for every row, wide enough for the
    // longest head up to kMaxHead; a longer head gets a line of its own.
    constexpr std::size_t kMaxHead = 24, kWidth = 78;
    std::vector<std::string> heads;
    std::size_t col = 0;
    for (const ArgSpec &s : specs) {
        std::string head = "  " + s.name;
        if (!s.meta.empty())
            head += " " + s.meta;
        col = std::max(col, std::min(head.size() + 2, kMaxHead));
        heads.push_back(std::move(head));
    }

    std::string out = "options:\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::string line = std::move(heads[i]);
        if (line.size() + 2 > col) {
            out += line + "\n";
            line.clear();
        }
        line.resize(col, ' ');
        std::istringstream words(specs[i].help);
        std::string word;
        bool lineEmpty = true;
        while (words >> word) {
            if (!lineEmpty && line.size() + 1 + word.size() > kWidth) {
                out += line + "\n";
                line.assign(col, ' ');
                lineEmpty = true;
            }
            if (!lineEmpty)
                line += ' ';
            line += word;
            lineEmpty = false;
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        out += line + "\n";
    }
    return out;
}

void
Usage::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n%s", tool.c_str(), message.c_str(),
                 text.c_str());
    std::exit(2);
}

Usage
parseCommandLine(int argc, char **argv, std::vector<ArgSpec> specs,
                 const std::string &synopsis, const std::string &trailer)
{
    bool help = false;
    specs.push_back(argFlag("-h, --help", &help, "this message"));
    Usage u;
    u.tool = argv[0];
    u.tool.erase(0, u.tool.rfind('/') + 1);
    u.text = "usage: " + u.tool + " " + synopsis + usage(specs) + trailer;
    std::string err;
    if (!parseArgs(argc, argv, specs, err))
        u.fail(err);
    if (help) {
        std::fputs(u.text.c_str(), stdout);
        std::exit(0);
    }
    return u;
}

} // namespace spin::exp
