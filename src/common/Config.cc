#include "common/Config.hh"

#include "common/Logging.hh"

namespace spin
{

std::string
toString(DeadlockScheme s)
{
    switch (s) {
      case DeadlockScheme::None: return "none";
      case DeadlockScheme::Spin: return "spin";
      case DeadlockScheme::StaticBubble: return "static-bubble";
    }
    return "?";
}

bool
schemeFromString(const std::string &text, DeadlockScheme &out)
{
    for (const DeadlockScheme s : {DeadlockScheme::None, DeadlockScheme::Spin,
                                   DeadlockScheme::StaticBubble}) {
        if (toString(s) == text) {
            out = s;
            return true;
        }
    }
    return false;
}

void
NetworkConfig::validate() const
{
    if (vnets < 1)
        SPIN_FATAL("vnets must be >= 1, got ", vnets);
    if (vcsPerVnet < 1)
        SPIN_FATAL("vcsPerVnet must be >= 1, got ", vcsPerVnet);
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
