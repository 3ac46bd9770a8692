/**
 * @file
 * FifoRing — allocation-stable FIFO queue.
 *
 * std::deque frees and re-acquires its fixed-size blocks as a
 * steady-state queue cycles across block boundaries, which puts an
 * allocator round-trip on every ~64th push for pointer-sized
 * elements — invisible in microbenchmarks that never queue, and a
 * per-bio heap hit on any hot path that does (the iocost throttle
 * queue under sustained contention). FifoRing is a power-of-two
 * ring over a vector: it grows when full and never returns memory,
 * so a warmed queue runs allocation-free regardless of how many
 * elements cycle through it.
 */

#ifndef IOCOST_SIM_FIFO_RING_HH
#define IOCOST_SIM_FIFO_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace iocost::sim {

template <typename T>
class FifoRing
{
  public:
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }

    void
    push_back(T v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
        ++count_;
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** Element @p i positions behind the head (0 = front). Exists so
     *  snapshot code can walk a queue without draining it. */
    T &at(size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
    const T &
    at(size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    /** Removes and default-resets the head slot, so owning element
     *  types (BioPtr) release their resource immediately. */
    void
    pop_front()
    {
        buf_[head_] = T();
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    /** Pops every element, front first. */
    void
    clear()
    {
        while (!empty())
            pop_front();
    }

  private:
    void
    grow()
    {
        const size_t old = buf_.size();
        std::vector<T> next(old == 0 ? 8 : old * 2);
        for (size_t i = 0; i < count_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (old - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_FIFO_RING_HH
