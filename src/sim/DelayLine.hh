/**
 * @file
 * Fixed-latency pipelined delay line.
 *
 * Models a wire/pipeline: an item pushed at cycle t with latency L becomes
 * visible to the consumer at cycle t + L. One item may enter per cycle
 * (links are one-flit wide) but the line itself never back-pressures;
 * admission control happens at the producer.
 */

#ifndef SPINNOC_SIM_DELAYLINE_HH
#define SPINNOC_SIM_DELAYLINE_HH

#include <cstddef>
#include <utility>

#include "common/Types.hh"
#include "sim/Ring.hh"

namespace spin
{

/**
 * Delay line of items of type T ordered by arrival cycle, on a Ring.
 * Items pushed earlier always arrive no later than items pushed later
 * (latency is constant per line), so the ring stays sorted.
 */
template <typename T>
class DelayLine
{
  public:
    /**
     * Schedule @p item to arrive at @p arrival. Arrivals are normally
     * pushed in order; a SPIN rotation streams a whole packet's worth
     * of staggered credits at once, so out-of-order pushes insert-sort
     * from the back (stable: equal arrivals keep push order).
     */
    void
    push(Cycle arrival, T item)
    {
        std::size_t i = line_.size();
        while (i > 0 && line_[i - 1].arrival > arrival)
            --i;
        line_.insert(i, Entry{arrival, std::move(item)});
    }

    /**
     * Pop every item whose arrival cycle is <= @p now, oldest first,
     * and hand each to @p fn as a mutable reference it may move from.
     * The item leaves the line before @p fn runs.
     */
    template <typename F>
    void
    drainInto(Cycle now, F &&fn)
    {
        while (!line_.empty() && line_.front().arrival <= now) {
            Entry e = line_.pop_front();
            fn(e.item);
        }
    }

    bool empty() const { return line_.empty(); }
    std::size_t size() const { return line_.size(); }

    /** Inspect pending items as (arrival, item), in arrival order,
     *  without disturbing them (audits, digests). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t i = 0; i < line_.size(); ++i)
            fn(line_[i].arrival, line_[i].item);
    }

  private:
    struct Entry
    {
        Cycle arrival = 0;
        T item{};
    };
    Ring<Entry> line_;
};

} // namespace spin

#endif // SPINNOC_SIM_DELAYLINE_HH
