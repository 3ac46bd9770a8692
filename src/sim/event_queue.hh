/**
 * @file
 * Discrete-event queue.
 *
 * The event queue is the heart of the simulation kernel: a binary
 * min-heap of (time, sequence) keys over a pool of event slots. Ties
 * in time break by insertion order so the simulation is fully
 * deterministic.
 *
 * Hot-path design (every scheduled event in every run pays these
 * costs):
 *
 * - Callbacks are `InlineCallback`s: lambdas up to 48 bytes live in
 *   the slot itself, so scheduling performs no heap allocation
 *   (the seed kernel paid a `make_shared<bool>` tombstone plus a
 *   possible `std::function` allocation per event). A slot is the
 *   56-byte callback plus its generation and free-list link: 64
 *   bytes, one cache line (kSlotBytes).
 * - Slots are recycled through a free list and carry a generation
 *   counter. An EventHandle is (queue, slot, generation); cancel and
 *   pending() are O(1) generation compares, and a recycled slot
 *   invalidates stale handles automatically.
 * - Heap entries are 24-byte PODs (time, seq, slot, generation), so
 *   sift operations move trivially-copyable values and never touch
 *   the callbacks.
 * - Cancellation destroys the callback eagerly (releasing whatever
 *   it captured) and leaves a dead heap entry that is skipped —
 *   detected by generation mismatch — when it surfaces.
 */

#ifndef IOCOST_SIM_EVENT_QUEUE_HH
#define IOCOST_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/state.hh"
#include "sim/time.hh"

namespace iocost::sim {

/** Callback type invoked when an event fires. */
using EventCallback = InlineCallback;

class EventQueue;

/**
 * Cancellation handle for a scheduled event.
 *
 * Copies refer to the same slot generation, so any copy may cancel.
 * A default-constructed handle refers to no event and is inert. A
 * handle must not be used after its EventQueue is destroyed (the
 * Simulator outlives every component by contract, so this only
 * constrains code that owns an EventQueue directly).
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. */
    void cancel();

    /** @return true if the handle refers to a not-yet-fired event. */
    bool pending() const;

  private:
    friend class EventQueue;

    EventHandle(EventQueue *queue, uint32_t slot, uint32_t gen)
        : queue_(queue), slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
    uint32_t slot_ = 0;
    uint32_t gen_ = 0;
};

/**
 * Deterministic discrete-event priority queue.
 *
 * Not thread safe: the entire simulation is single threaded by design
 * (see DESIGN.md, "Deterministic DES"). The parallel fleet runner
 * gets its concurrency from one private EventQueue per host-day.
 */
class EventQueue
{
  public:
    /**
     * Schedule a callback at an absolute simulated time.
     *
     * Perfect-forwarded so the callable is constructed directly in
     * its event slot — no intermediate EventCallback relocations on
     * the hottest path in the simulator.
     *
     * @param when Absolute firing time; values before now() are
     *             clamped to now() (time is monotonic).
     * @param fn Callback to invoke (any void() callable).
     * @return Handle usable to cancel the event.
     */
    template <typename F>
    EventHandle
    scheduleAt(Time when, F &&fn)
    {
        // The clock never runs backwards: a past firing time would
        // silently reorder against events already executed, so clamp
        // it to the present.
        if (when < now_)
            when = now_;
        const uint32_t slot = acquireSlot(std::forward<F>(fn));
        const uint32_t gen = slots_[slot].gen;
        heap_.push_back(HeapEntry{when, nextSeq_++, slot, gen});
        siftUp(heap_.size() - 1);
        return EventHandle(this, slot, gen);
    }

    /** Schedule a callback a relative delay from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Time delay, F &&fn)
    {
        return scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /** Current simulated time. */
    Time now() const { return now_; }

    /** @return true if no live events remain (prunes tombstones). */
    bool
    empty()
    {
        prune();
        return heap_.empty();
    }

    /** Firing time of the next live event, or kTimeNever. */
    Time
    nextEventTime()
    {
        prune();
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Pop and run the next live event, advancing the clock.
     *
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    step()
    {
        while (!heap_.empty()) {
            const HeapEntry e = heap_.front();
            popTop();
            Slot &s = slots_[e.slot];
            if (s.gen != e.gen)
                continue; // tombstone of a cancelled event
            // Recycle the slot and vacate the callback *before*
            // invoking: the callback may schedule (growing or even
            // reallocating the pool) or query its own handle (which
            // must read not-pending, like the seed kernel's
            // tombstone-before-invoke). consumeInvoke moves the
            // callable to the stack in the same dispatch that runs
            // it, so the hot path pays one indirect call, not three.
            ++s.gen;
            s.nextFree = freeHead_;
            freeHead_ = e.slot;
            now_ = e.when;
            s.cb.consumeInvoke();
            return true;
        }
        return false;
    }

    /**
     * Run events with firing time <= @p until, then advance the clock
     * to @p until.
     *
     * @return number of events executed.
     */
    uint64_t
    runUntil(Time until)
    {
        uint64_t executed = 0;
        while (nextEventTime() <= until) {
            if (!step())
                break;
            ++executed;
        }
        if (now_ < until)
            now_ = until;
        return executed;
    }

    /** Run until no live events remain. @return events executed. */
    uint64_t
    runAll()
    {
        uint64_t executed = 0;
        while (step())
            ++executed;
        return executed;
    }

    /**
     * @name Snapshot support
     *
     * The whole slot arena is cloned wholesale: every live
     * callback's capture is copied into the image (so the snapshot
     * owns independent state) while the heap keys, slot indices and
     * generation counters are preserved *exactly*. Preserving
     * (when, seq) keys — rather than re-registering events — is
     * what keeps tie-break order, and therefore the simulation,
     * byte-identical after a restore. Saved EventHandles are
     * revalidated for free: a handle is (slot, generation), and
     * both roll back with the arena.
     *
     * Requires every pending callback to be cloneable (copyable
     * capture); clone() aborts otherwise.
     * @{
     */

    void saveState(StateWriter &w) const { walk(*this, w); }
    void loadState(StateReader &r) { walk(*this, r); }

    /** Persist a component's EventHandle as its (slot, generation)
     *  coordinates; valid again after the arena is restored. */
    void
    handle(StateWriter &w, const EventHandle &h) const
    {
        w.value(h.queue_ != nullptr);
        w.value(h.slot_);
        w.value(h.gen_);
    }

    /** Rebind a handle saved by the writer overload to this queue. */
    void
    handle(StateReader &r, EventHandle &h)
    {
        bool bound = false;
        uint32_t slot = 0;
        uint32_t gen = 0;
        r.value(bound);
        r.value(slot);
        r.value(gen);
        h = bound ? EventHandle(this, slot, gen) : EventHandle();
    }

    /** @} */

  private:
    friend class EventHandle;

    /** Heap key: trivially copyable, 24 bytes, sifted by value. */
    struct HeapEntry
    {
        Time when;
        uint64_t seq;
        uint32_t slot;
        uint32_t gen;
    };

    /** Pooled event state; address-stable storage for the callback
     *  while the POD heap entries shuffle above it. */
    struct Slot
    {
        EventCallback cb;
        /** Bumped on every release; stale handles and heap entries
         *  carry the old value and read as dead. */
        uint32_t gen = 0;
        uint32_t nextFree = kNoFree;
    };

    static constexpr uint32_t kNoFree = UINT32_MAX;

  public:
    /** Bytes per pooled event (tests pin it to one cache line). */
    static constexpr std::size_t kSlotBytes = sizeof(Slot);

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.value(self.now_);
        t.value(self.nextSeq_);
        t.value(self.freeHead_);
        t.pods(self.heap_);
        // Destroy current callbacks first: post-snapshot events may
        // hold resources (pooled bios) that must return to their
        // owners before the restored callbacks re-clone theirs.
        if constexpr (Tape::kLoading)
            self.slots_.clear();
        t.template size<uint32_t>(self.slots_);
        for (auto &s : self.slots_) {
            t.value(s.gen);
            t.value(s.nextFree);
            bool armed = static_cast<bool>(s.cb);
            t.value(armed);
            t.callback(s.cb, armed);
        }
    }

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** @return true if the entry's slot generation is still live. */
    bool
    live(const HeapEntry &e) const
    {
        return slots_[e.slot].gen == e.gen;
    }

    /** Pop a free slot (or grow the pool) and construct the callable
     *  straight into it; EventCallback arguments move-assign, other
     *  callables use InlineCallback's in-place assignment. */
    template <typename F>
    uint32_t
    acquireSlot(F &&fn)
    {
        if (freeHead_ == kNoFree) {
            slots_.emplace_back();
            slots_.back().cb = std::forward<F>(fn);
            return static_cast<uint32_t>(slots_.size() - 1);
        }
        const uint32_t slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
        slots_[slot].cb = std::forward<F>(fn);
        return slot;
    }

    /** Retire a live slot: bump its generation (invalidating every
     *  outstanding reference) and return its callback. */
    EventCallback
    releaseSlot(uint32_t slot)
    {
        Slot &s = slots_[slot];
        EventCallback cb = std::move(s.cb);
        s.cb.reset();
        ++s.gen;
        s.nextFree = freeHead_;
        freeHead_ = slot;
        return cb;
    }

    /** O(1) cancel: validate the generation, retire the slot. The
     *  heap entry stays behind and is skipped when it surfaces. */
    bool
    cancelSlot(uint32_t slot, uint32_t gen)
    {
        if (slot >= slots_.size() || slots_[slot].gen != gen)
            return false;
        releaseSlot(slot);
        return true;
    }

    bool
    slotPending(uint32_t slot, uint32_t gen) const
    {
        return slot < slots_.size() && slots_[slot].gen == gen;
    }

    /** Drop dead entries sitting at the top of the heap. */
    void
    prune()
    {
        while (!heap_.empty() && !live(heap_.front()))
            popTop();
    }

    /**
     * The heap is 4-ary, not binary: half the levels per sift, and
     * the four children of a node span at most two cache lines
     * (4 x 24 bytes), so the extra compares per level are nearly
     * free next to the halved chain of data-dependent branches. Pop
     * order is unchanged — (when, seq) is a strict total order, so
     * any-arity heap pops events in exactly the same sequence.
     */
    static constexpr std::size_t kArity = 4;

    void
    siftUp(std::size_t i)
    {
        const HeapEntry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (!earlier(e, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Remove the root, restoring the heap property. */
    void
    popTop()
    {
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n == 0)
            return;
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = kArity * i + 1;
            if (first >= n)
                break;
            std::size_t kid = first;
            const std::size_t end = std::min(first + kArity, n);
            for (std::size_t c = first + 1; c < end; ++c) {
                if (earlier(heap_[c], heap_[kid]))
                    kid = c;
            }
            if (!earlier(heap_[kid], last))
                break;
            heap_[i] = heap_[kid];
            i = kid;
        }
        heap_[i] = last;
    }

    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    uint32_t freeHead_ = kNoFree;
    Time now_ = 0;
    uint64_t nextSeq_ = 0;
};

inline void
EventHandle::cancel()
{
    if (queue_)
        queue_->cancelSlot(slot_, gen_);
}

inline bool
EventHandle::pending() const
{
    return queue_ && queue_->slotPending(slot_, gen_);
}

} // namespace iocost::sim

#endif // IOCOST_SIM_EVENT_QUEUE_HH
