#include "core/SpecialMsg.hh"

#include <sstream>

namespace spin
{

std::string
SpecialMsg::toString() const
{
    std::ostringstream os;
    os << spin::toString(type) << " from R" << sender << " path[";
    for (std::size_t i = 0; i < path.size(); ++i)
        os << (i ? "," : "") << path[i];
    os << "] idx=" << pathIdx << " spin@" << spinCycle;
    return os.str();
}

} // namespace spin
