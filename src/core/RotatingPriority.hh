/**
 * @file
 * Principle of rotating priority among routers (paper Sec. IV-C1).
 *
 * Probes contending for the same link are arbitrated by the dynamic
 * priority of their *senders*. Priorities rotate round-robin every
 * epoch (4 * t_DD by default) so that every router eventually holds the
 * highest priority long enough to detect a deadlock, send a probe and
 * receive it back -- the liveness argument for arbitrary loops.
 */

#ifndef SPINNOC_CORE_ROTATINGPRIORITY_HH
#define SPINNOC_CORE_ROTATINGPRIORITY_HH

#include "common/Types.hh"

namespace spin
{

/** See file comment. Higher value = higher priority. */
class RotatingPriority
{
  public:
    /**
     * @param num_routers routers in the network
     * @param epoch_len   cycles per rotation step (4 * t_DD)
     */
    RotatingPriority(int num_routers, Cycle epoch_len);

    /** Dynamic priority of router @p r at cycle @p now, in [0, N). */
    int priorityOf(RouterId r, Cycle now) const;

    /** Cycles for priorities to complete one full rotation. */
    Cycle fullRotation() const { return epochLen_ * n_; }

  private:
    int n_;
    Cycle epochLen_;
};

} // namespace spin

#endif // SPINNOC_CORE_ROTATINGPRIORITY_HH
