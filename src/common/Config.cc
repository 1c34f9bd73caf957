#include "common/Config.hh"

#include "common/Logging.hh"

namespace spin
{

void
NetworkConfig::validate() const
{
    if (vnets < 1)
        SPIN_FATAL("vnets must be >= 1, got ", vnets);
    if (vcsPerVnet < 1)
        SPIN_FATAL("vcsPerVnet must be >= 1, got ", vcsPerVnet);
    // totalVcs() > 64, without overflowing the product.
    if (vcsPerVnet > 64 / vnets) {
        SPIN_FATAL("occupancy bitmasks support at most 64 VCs per port "
                   "(vnets x vcsPerVnet), got ", vnets, " x ", vcsPerVnet);
    }
    if (vcDepth < 1)
        SPIN_FATAL("vcDepth must be >= 1, got ", vcDepth);
    if (maxPacketSize < 1)
        SPIN_FATAL("maxPacketSize must be >= 1, got ", maxPacketSize);
    if (vcDepth < maxPacketSize) {
        SPIN_FATAL("virtual cut-through requires vcDepth (", vcDepth,
                   ") >= maxPacketSize (", maxPacketSize, ")");
    }
    if (scheme == DeadlockScheme::Spin && tDd < 1)
        SPIN_FATAL("tDd must be >= 1, got ", tDd);
    if (scheme == DeadlockScheme::Spin && epochMultiplier < 2)
        SPIN_FATAL("epochMultiplier must be >= 2, got ", epochMultiplier);
    if (threads < 1)
        SPIN_FATAL("threads must be >= 1, got ", threads);
    if (scheme == DeadlockScheme::StaticBubble && vcsPerVnet < 2) {
        SPIN_FATAL("static bubble reserves one VC per vnet and needs "
                   "vcsPerVnet >= 2, got ", vcsPerVnet);
    }
    if (reliability.enabled) {
        if (reliability.maxLinkRetries < 0)
            SPIN_FATAL("reliability.maxLinkRetries must be >= 0, got ",
                       reliability.maxLinkRetries);
        if (reliability.ackTimeout < 1)
            SPIN_FATAL("reliability.ackTimeout must be >= 1, got ",
                       reliability.ackTimeout);
        if (reliability.maxRetransmits < 0)
            SPIN_FATAL("reliability.maxRetransmits must be >= 0, got ",
                       reliability.maxRetransmits);
        if (reliability.watchdogBudget < 1)
            SPIN_FATAL("reliability.watchdogBudget must be >= 1, got ",
                       reliability.watchdogBudget);
    }
}

} // namespace spin
