/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a simulator bug.
 * fatal()  - the user supplied an impossible configuration.
 * warn()   - something is suspicious but the simulation can continue.
 */

#ifndef SPINNOC_COMMON_LOGGING_HH
#define SPINNOC_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace spin
{

/** Abort with a message: simulator bug (calls std::abort). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exit with a message: user configuration error (throws). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

/** Thrown by fatal() so tests can assert on bad configurations. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

inline void
streamAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
streamAll(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    streamAll(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    streamAll(os, args...);
    return os.str();
}

} // namespace detail

} // namespace spin

#define SPIN_PANIC(...) \
    ::spin::panicImpl(__FILE__, __LINE__, ::spin::detail::concat(__VA_ARGS__))

#define SPIN_FATAL(...) \
    ::spin::fatalImpl(__FILE__, __LINE__, ::spin::detail::concat(__VA_ARGS__))

#define SPIN_WARN(...) \
    ::spin::warnImpl(::spin::detail::concat(__VA_ARGS__))

/** Cheap always-on invariant check with context. */
#define SPIN_ASSERT(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            SPIN_PANIC("assertion failed: ", #cond, " ",                  \
                       ::spin::detail::concat(__VA_ARGS__));              \
        }                                                                 \
    } while (0)

#endif // SPINNOC_COMMON_LOGGING_HH
