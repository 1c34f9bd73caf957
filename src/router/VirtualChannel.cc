#include "router/VirtualChannel.hh"

#include <utility>

#include "common/Logging.hh"

namespace spin
{

void
VirtualChannel::pushFlit(Flit f, Cycle now)
{
    if (!active_) {
        SPIN_ASSERT(f.isHead(), "first flit into an idle VC must be a "
                    "head, got ", f.toString());
        SPIN_ASSERT(buf_.empty(), "idle VC with buffered flits");
        active_ = true;
        activeSince_ = now;
        lastProgress_ = now;
        owner_ = f.pkt;
    } else {
        SPIN_ASSERT(owner_ == f.pkt,
                    "VC interleaving two packets (VCT violation)");
    }
    buf_.push_back(std::move(f));
}

Flit
VirtualChannel::popFlit()
{
    SPIN_ASSERT(!buf_.empty(), "pop from empty VC");
    Flit f = buf_.pop_front();
    if (f.isTail()) {
        SPIN_ASSERT(buf_.empty(), "flits behind a tail in one VC");
        active_ = false;
        owner_.reset();
        routeValid = false;
        request = kInvalidId;
        grantedVc = kInvalidId;
        frozen = false;
        frozenOutport = kInvalidId;
    }
    return f;
}

} // namespace spin
