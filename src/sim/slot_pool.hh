/**
 * @file
 * SlotPool — a growable array of slots addressed by uint32_t handle
 * and recycled through a LIFO free list: the sweep's shared outcome
 * log (blk::ServiceLog), the fused observer's pending completions
 * and the sweep runner's replay batches. A handle indexes its slot
 * directly, with no hashing, and the LIFO free list hands the most
 * recently released, still cache-warm slot back first.
 *
 * The free list is intrusive: a free slot keeps the next free handle
 * in its `Link` member, so a slot costs sizeof(T) and nothing more.
 * Every other member is left as its last user left it (a slot that
 * owns a buffer keeps its capacity across reuse), so acquire() does
 * not reinitialize the slot; callers assign what they need. The pool
 * appends a slot only when the free list is empty, which means its
 * slot count is the high-water mark of live handles: once grown to
 * it, acquire() and release() allocate nothing. The slot array
 * never shrinks.
 */

#ifndef IOCOST_SIM_SLOT_POOL_HH
#define IOCOST_SIM_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iocost::sim {

/**
 * @tparam T    Slot type (default-constructible, movable).
 * @tparam Link The uint32_t member of T that holds the next free
 *              handle while the slot is free; while the slot is live
 *              it may mean something else (the log's holder count).
 */
template <typename T, uint32_t T::*Link>
class SlotPool
{
  public:
    /** The free list's end marker; never a valid handle. */
    static constexpr uint32_t kNone = UINT32_MAX;

    /** A free slot's handle, appending one when none is free. The
     *  slot holds whatever its previous user left in it. */
    uint32_t
    acquire()
    {
        uint32_t h = free_;
        if (h != kNone) {
            free_ = slots_[h].*Link;
        } else {
            h = static_cast<uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        ++live_;
        return h;
    }

    /** Put @p h (acquired and not yet released) back on the free
     *  list; it is the next handle acquire() returns. */
    void
    release(uint32_t h)
    {
        slots_[h].*Link = free_;
        free_ = h;
        --live_;
    }

    T &operator[](uint32_t h) { return slots_[h]; }
    const T &operator[](uint32_t h) const { return slots_[h]; }

    /** Handles acquired and not yet released. */
    size_t live() const { return live_; }

    /** Slots ever created: the high-water mark of live(). Handles
     *  are below it. */
    size_t slots() const { return slots_.size(); }

  private:
    std::vector<T> slots_;
    uint32_t free_ = kNone;
    size_t live_ = 0;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_SLOT_POOL_HH
