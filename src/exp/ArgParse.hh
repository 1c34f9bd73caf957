/**
 * @file
 * Declarative command-line parsing, and the front door every tool,
 * bench and example parses its command line through
 * (parseCommandLine()).
 *
 * The contract every tool built on this gets for free:
 *  - unknown `--flags` are fatal, anywhere on the line;
 *  - bare positional arguments are fatal (no tool here takes any);
 *  - a flag that needs a value never silently swallows the next flag
 *    (`--seed --fast` is an error, not seed=0 plus a lost --fast);
 *  - numeric values are validated end-to-end (`--seed 10x` is an
 *    error, not 10);
 *  - `--name value` and `--name=value` are both accepted;
 *  - the usage text is generated from the same rows (usage()), so a
 *    flag cannot be parsed without being listed or listed without
 *    being parsed.
 *
 * parseArgs() never exits or throws; parseCommandLine() turns its
 * errors into the shared exit codes.
 */

#ifndef SPINNOC_EXP_ARGPARSE_HH
#define SPINNOC_EXP_ARGPARSE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace spin::exp
{

/** One accepted flag, its usage line, and where its value lands. */
struct ArgSpec
{
    enum class Kind : std::uint8_t
    {
        U64,  //!< unsigned integer value
        Int,  //!< non-negative integer that fits an int
        F64,  //!< floating-point value
        Str,  //!< string value
        Flag, //!< boolean, no value
    };

    /** Every spelling, comma-separated, as the usage shows them:
     *  "--fast", or "-j, --jobs" for a short alias. */
    std::string name;
    Kind kind = Kind::Flag;
    std::string help; //!< one-line description (wrapped by usage())
    std::string meta; //!< value placeholder in the usage ("N", "PATH")

    std::uint64_t *u64 = nullptr;
    int *i32 = nullptr;
    /** Inclusive range of an Int value; outside it is a usage error. */
    int intMin = 0;
    int intMax = std::numeric_limits<int>::max();
    double *f64 = nullptr;
    std::string *str = nullptr;
    bool *flag = nullptr;
    /** Optional: set true when the flag appeared. */
    bool *seen = nullptr;

    /** True when @p spelling is one of the comma-separated names. */
    bool spelledAs(const std::string &spelling) const;
};

/// @name Spec constructors
/// @{
ArgSpec argU64(const char *name, std::uint64_t *dst,
               const std::string &help = "", bool *seen = nullptr);
/** An integer flag for an int field: a value outside [@p min, @p max]
 *  is a usage error, never narrowed or clamped. */
ArgSpec argInt(const char *name, int *dst, const std::string &help = "",
               int min = 0, int max = std::numeric_limits<int>::max());
ArgSpec argF64(const char *name, double *dst, const std::string &help = "");
ArgSpec argStr(const char *name, std::string *dst,
               const std::string &help = "", const char *meta = "PATH");
ArgSpec argFlag(const char *name, bool *dst, const std::string &help = "");
/// @}

/** Strict full-string unsigned parse (no trailing garbage, no sign). */
bool parseU64(const std::string &text, std::uint64_t &out);
/** Strict full-string double parse. */
bool parseF64(const std::string &text, double &out);

/**
 * Parse @p argv[1..] against @p specs. Returns false with @p err set on
 * the first violation of the contract in the file comment. `--help` and
 * `-h` are NOT special-cased here; tools that want them list a Flag.
 */
bool parseArgs(int argc, char **argv, const std::vector<ArgSpec> &specs,
               std::string &err);

/** "options:" followed by one aligned, word-wrapped entry per row of
 *  @p specs, in order. */
std::string usage(const std::vector<ArgSpec> &specs);

/** A parsed command line's usage text, for usage errors found after
 *  parsing (a required flag missing, an unknown name). */
struct Usage
{
    std::string tool; //!< argv[0] without its directory
    std::string text;

    /** Print "<tool>: <message>" and the usage to stderr; exit 2. */
    [[noreturn]] void fail(const std::string &message) const;
};

/**
 * The command-line front door: parse @p argv against @p specs plus a
 * generated "-h, --help" row. A usage error prints "<tool>: <error>"
 * and the usage to stderr and exits 2; --help prints the usage to
 * stdout and exits 0. The usage is "usage: <tool> " + @p synopsis, the
 * option table, then @p trailer.
 */
Usage parseCommandLine(int argc, char **argv, std::vector<ArgSpec> specs,
                       const std::string &synopsis = "[options]\n",
                       const std::string &trailer = "");

} // namespace spin::exp

#endif // SPINNOC_EXP_ARGPARSE_HH
