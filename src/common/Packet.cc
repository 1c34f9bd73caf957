#include "common/Packet.hh"

#include <sstream>
#include <vector>

#include "common/Logging.hh"

namespace spin
{

std::string
toString(FlitType t)
{
    switch (t) {
      case FlitType::Head: return "Head";
      case FlitType::Body: return "Body";
      case FlitType::Tail: return "Tail";
      case FlitType::HeadTail: return "HeadTail";
    }
    return "?";
}

std::string
Packet::toString() const
{
    std::ostringstream os;
    os << "pkt#" << id << " " << src << "->" << dest << " vnet" << vnet
       << " size" << sizeFlits;
    return os.str();
}

std::string
Flit::toString() const
{
    std::ostringstream os;
    os << spin::toString(type) << "[" << seq << "] of "
       << (pkt ? pkt->toString() : std::string("<null>"));
    return os.str();
}

void
makeFlitsInto(const PacketPtr &pkt, std::vector<Flit> &flits)
{
    SPIN_ASSERT(pkt && pkt->sizeFlits >= 1, "bad packet");
    flits.clear();
    flits.reserve(pkt->sizeFlits);
    for (int i = 0; i < pkt->sizeFlits; ++i) {
        FlitType t;
        if (pkt->sizeFlits == 1)
            t = FlitType::HeadTail;
        else if (i == 0)
            t = FlitType::Head;
        else if (i == pkt->sizeFlits - 1)
            t = FlitType::Tail;
        else
            t = FlitType::Body;
        flits.push_back(Flit{pkt, t, i});
    }
}

std::vector<Flit>
makeFlits(const PacketPtr &pkt)
{
    std::vector<Flit> flits;
    makeFlitsInto(pkt, flits);
    return flits;
}

} // namespace spin
