/**
 * @file
 * ServiceLog — the shared device/fault event stream for multi-config
 * (sweep) execution.
 *
 * In sweep mode one generator host drives the device model, and K
 * shadow controller lanes replay its per-request outcomes. The log
 * records, for every (bio id, attempt) the generator's device
 * accepted, the device-side service duration (accept-to-completion,
 * including channel waits, GC pacing, hiccups, and injected stalls)
 * and the fault-draw status. Replay devices in the lanes look
 * outcomes up by (id, attempt), so all K configs observe identical
 * device randomness while their queueing/throttling timing stays
 * their own (common random numbers, paper-comparison semantics).
 *
 * Storage is O(live ids), not O(total bios): an id lives from
 * open() until its last holder releases it — the generator (at
 * close()) and each lane (its copy's terminal completion, or the
 * fused observer consuming the outcome for its member lanes). That
 * is the requests in flight plus any throttled lane's backlog.
 */

#ifndef IOCOST_BLK_SERVICE_LOG_HH
#define IOCOST_BLK_SERVICE_LOG_HH

#include <algorithm>
#include <cstdint>

#include "blk/bio.hh"
#include "sim/id_table.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace iocost::blk {

/**
 * Outcome log of live ids, written by the generator's device model
 * and read by per-lane replay devices.
 */
class ServiceLog
{
  public:
    /** One recorded device outcome. */
    struct Entry
    {
        /** Accept-to-completion time the device delivered. */
        sim::Time duration = 0;
        /** Status drawn from the shared fault stream. */
        BioStatus status = BioStatus::Ok;
        bool valid = false;
    };

    /** Notified with the bio id on every append and close, so replay
     *  devices can resolve requests parked on a missing entry. */
    using Listener = sim::InlineFunction<void(uint64_t), 16>;

    /** Start tracking @p id; it stays live until released
     *  @p holders times (close() is one of them). */
    void
    open(uint64_t id, uint32_t holders)
    {
        slots_.insert(id).holders = holders;
        peakLive_ = std::max(peakLive_, slots_.size());
    }

    /** Record the outcome of one device-accepted attempt. */
    void
    append(uint64_t id, uint8_t attempt, sim::Time duration,
           BioStatus status)
    {
        Slot &s = liveSlot(id);
        if (attempt == 0) {
            s.first = Entry{duration, status, true};
        } else {
            retries_.insert(retryKey(id, attempt)) =
                Entry{duration, status, true};
        }
        s.lastAttempt = std::max(s.lastAttempt, attempt);
        notify(id);
    }

    /**
     * Mark an id terminal: the generator delivered its final
     * completion, no further attempts will be recorded. Lanes whose
     * retry schedule diverged past the generator's clamp to the last
     * recorded attempt (see findClamped). Listeners run first, then
     * the generator's holder is released.
     */
    void
    close(uint64_t id)
    {
        liveSlot(id).closed = true;
        notify(id);
        release(id);
    }

    /**
     * Drop @p n holders of @p id; the last one erases the id and its
     * retry entries. Panics when @p id has fewer than @p n holders
     * left (unknown, already retired, or released twice).
     */
    void
    release(uint64_t id, uint32_t n = 1)
    {
        sim::IdTable<Slot>::Cell *c = slots_.find(id);
        sim::panicIf(c == nullptr || c->value.holders < n,
                     "ServiceLog: release of an id with no holder "
                     "left");
        if ((c->value.holders -= n) != 0)
            return;
        for (unsigned a = 1; a <= c->value.lastAttempt; ++a) {
            if (auto *r = retries_.find(
                    retryKey(id, static_cast<uint8_t>(a))))
                retries_.erase(*r);
        }
        slots_.erase(*c);
    }

    /**
     * The completion every lane bio carries: releases one holder of
     * the bio's id, so a lane lets go of an id exactly when its copy
     * terminally completes. Captures one pointer, so it lives inline
     * in the bio.
     */
    BioEndFn
    releaser()
    {
        return [this](const Bio &bio) { release(bio.id); };
    }

    /** A lane's copy of generator bio @p src: the same request,
     *  carrying releaser(). */
    BioPtr
    laneCopy(const Bio &src)
    {
        BioPtr bio = Bio::make(src.op, src.offset, src.size,
                               src.cgroup, releaser());
        bio->swap = src.swap;
        bio->meta = src.meta;
        bio->wb = src.wb;
        return bio;
    }

    /** Exact lookup, or nullptr when not (yet) recorded. */
    const Entry *
    find(uint64_t id, uint8_t attempt) const
    {
        const sim::IdTable<Slot>::Cell *c = slots_.find(id);
        return c == nullptr ? nullptr : entry(id, c->value, attempt);
    }

    /**
     * Lookup with the retry clamp: the entry for the highest
     * recorded attempt <= @p attempt. Used once an id is closed, so
     * a lane that (through divergent queue timing) wants more
     * attempts than the generator made still completes with the
     * shared stream's final outcome. nullptr when the id carries no
     * entries at all (the generator expired it before the device).
     */
    const Entry *
    findClamped(uint64_t id, uint8_t attempt) const
    {
        const sim::IdTable<Slot>::Cell *c = slots_.find(id);
        if (c == nullptr)
            return nullptr;
        for (uint8_t a = std::min(attempt, c->value.lastAttempt);;
             --a) {
            if (const Entry *e = entry(id, c->value, a))
                return e;
            if (a == 0)
                break;
        }
        return nullptr;
    }

    /** True once close(id) ran (and while the id is live). */
    bool
    closed(uint64_t id) const
    {
        const sim::IdTable<Slot>::Cell *c = slots_.find(id);
        return c != nullptr && c->value.closed;
    }

    /** The one listener, fired on append and close. */
    void setListener(Listener fn) { listener_ = std::move(fn); }

    /** Ids open and not yet fully released. */
    size_t live() const { return slots_.size(); }

    /** Highest live() so far. */
    size_t peakLive() const { return peakLive_; }

  private:
    struct Slot
    {
        Entry first;
        uint32_t holders = 0;
        uint8_t lastAttempt = 0;
        bool closed = false;
    };

    /** Retry attempts share the retry table, keyed by id with the
     *  attempt in the top byte (bio ids stay far below 2^56). */
    static uint64_t
    retryKey(uint64_t id, uint8_t attempt)
    {
        return id | (uint64_t{attempt} << 56);
    }

    Slot &
    liveSlot(uint64_t id)
    {
        sim::IdTable<Slot>::Cell *c = slots_.find(id);
        sim::panicIf(c == nullptr, "ServiceLog: id is not live");
        return c->value;
    }

    const Entry *
    entry(uint64_t id, const Slot &s, uint8_t attempt) const
    {
        if (attempt == 0)
            return s.first.valid ? &s.first : nullptr;
        const sim::IdTable<Entry>::Cell *r =
            retries_.find(retryKey(id, attempt));
        return r == nullptr ? nullptr : &r->value;
    }

    void
    notify(uint64_t id)
    {
        if (listener_)
            listener_(id);
    }

    sim::IdTable<Slot> slots_;
    /** Attempts >= 1, keyed by retryKey(). */
    sim::IdTable<Entry> retries_;
    Listener listener_;
    size_t peakLive_ = 0;
};

} // namespace iocost::blk

#endif // IOCOST_BLK_SERVICE_LOG_HH
