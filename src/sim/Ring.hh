/**
 * @file
 * FIFO ring buffer behind every per-link, per-NIC and per-VC queue.
 *
 * A large fabric has tens of thousands of these queues and most of them
 * are empty or hold a few items, so the ring is built for its idle
 * footprint: no storage until the first push, then a power-of-two slot
 * array that doubles when full and is kept across drains. Head and
 * count live inline and a slot index is a mask, not a modulo.
 */

#ifndef SPINNOC_SIM_RING_HH
#define SPINNOC_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/Logging.hh"

namespace spin
{

/**
 * FIFO of T (default-constructible, move-assignable), indexed 0 = front.
 * Popping moves the item out of its slot, so a slot never keeps a
 * moved-from resource alive (a PacketPtr or a path vector empties on
 * move).
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    /** Slots allocated: 0 before the first push, then a power of two. */
    std::size_t capacity() const { return slots_.size(); }

    /** Item @p i in FIFO order. @pre i < size(). */
    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slot(i)]; }
    /** @pre !empty(). */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    void
    push_back(T item)
    {
        if (count_ == slots_.size())
            grow();
        slots_[slot(count_)] = std::move(item);
        ++count_;
    }

    /** Insert @p item before item @p i (i == size() appends); the
     *  items from @p i on shift back by one. */
    void
    insert(std::size_t i, T item)
    {
        if (count_ == slots_.size())
            grow();
        for (std::size_t j = count_; j > i; --j)
            slots_[slot(j)] = std::move(slots_[slot(j - 1)]);
        slots_[slot(i)] = std::move(item);
        ++count_;
    }

    /** Remove and return the front item. @pre !empty(). */
    T
    pop_front()
    {
        T item = std::move(slots_[head_]);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
        return item;
    }

  private:
    static constexpr std::size_t kFirstCapacity = 4;

    std::vector<T> slots_;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;

    std::size_t
    slot(std::size_t i) const
    {
        return (head_ + i) & (slots_.size() - 1);
    }

    void
    grow()
    {
        const std::size_t cap =
            slots_.empty() ? kFirstCapacity : 2 * slots_.size();
        SPIN_ASSERT(cap <= (std::size_t{1} << 31), "ring overflow");
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(slots_[slot(i)]);
        slots_ = std::move(next);
        head_ = 0;
    }
};

} // namespace spin

#endif // SPINNOC_SIM_RING_HH
