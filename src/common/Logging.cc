#include "common/Logging.hh"

#include <cstdlib>
#include <iostream>

namespace spin
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " @ " << file << ":" << line
              << std::endl;
    throw FatalError(msg);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace spin
