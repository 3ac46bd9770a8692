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
 *
 * Each live id owns one 24-byte slot of a sim::SlotPool arena, and
 * open() returns the slot's handle. The generator bio and every lane
 * copy carry it (Bio::logHandle), so append, close, release and the
 * lookups index the slot directly and check that it still holds the
 * caller's id: a stale or foreign handle panics instead of reading
 * another request's outcome. The slot holds the first attempt's
 * outcome; attempts >= 1 go to a small id-keyed sim::IdTable, which
 * stays empty unless the device fails requests, and whose probes
 * hashedLookups() counts.
 */

#ifndef IOCOST_BLK_SERVICE_LOG_HH
#define IOCOST_BLK_SERVICE_LOG_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "blk/bio.hh"
#include "sim/id_table.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/slot_pool.hh"
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
    };

    /** Notified with the handle and id on every append and close,
     *  so replay devices can resolve requests parked on a missing
     *  entry. */
    using Listener =
        sim::InlineFunction<void(uint32_t handle, uint64_t id), 16>;

    /** Start tracking @p id (nonzero); it stays live until released
     *  @p holders times (close() is one of them). Returns the
     *  handle every later call for the id passes. */
    uint32_t
    open(uint64_t id, uint32_t holders)
    {
        const uint32_t h = slots_.acquire();
        slots_[h] = Slot{.id = id, .holders = holders};
        peakLive_ = std::max(peakLive_, slots_.live());
        return h;
    }

    /** Record the outcome of one device-accepted attempt. */
    void
    append(uint32_t h, uint64_t id, uint8_t attempt,
           sim::Time duration, BioStatus status)
    {
        Slot &s = liveSlot(h, id);
        if (attempt == 0) {
            s.duration = duration;
            s.status = status;
            s.recorded = true;
        } else {
            ++hashedLookups_;
            retries_.insert(retryKey(id, attempt)) =
                Entry{duration, status};
        }
        s.lastAttempt = std::max(s.lastAttempt, attempt);
        notify(h, id);
    }

    /**
     * Mark an id terminal: the generator delivered its final
     * completion, no further attempts will be recorded. Lanes whose
     * retry schedule diverged past the generator's clamp to the last
     * recorded attempt (see findClamped). Listeners run first, then
     * the generator's holder is released.
     */
    void
    close(uint32_t h, uint64_t id)
    {
        liveSlot(h, id).closed = true;
        notify(h, id);
        release(h, id);
    }

    /**
     * Drop @p n holders of @p id; the last one frees its slot and
     * erases its retry entries. Panics when the slot does not hold
     * @p id (already retired, or a stale handle) or has fewer than
     * @p n holders left.
     */
    void
    release(uint32_t h, uint64_t id, uint32_t n = 1)
    {
        Slot &s = liveSlot(h, id);
        sim::panicIf(s.holders < n,
                     "ServiceLog: release of an id with no holder "
                     "left");
        if ((s.holders -= n) != 0)
            return;
        for (unsigned a = 1; a <= s.lastAttempt; ++a) {
            ++hashedLookups_;
            if (auto *r = retries_.find(
                    retryKey(id, static_cast<uint8_t>(a))))
                retries_.erase(*r);
        }
        s.id = 0;
        slots_.release(h);
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
        return [this](const Bio &bio) {
            release(bio.logHandle, bio.id);
        };
    }

    /** A lane's copy of generator bio @p src: the same request and
     *  log handle, carrying releaser(). */
    BioPtr
    laneCopy(const Bio &src)
    {
        BioPtr bio = Bio::make(src.op, src.offset, src.size,
                               src.cgroup, releaser());
        bio->swap = src.swap;
        bio->meta = src.meta;
        bio->wb = src.wb;
        bio->logHandle = src.logHandle;
        return bio;
    }

    /** Exact lookup of a live id's attempt, or nullopt when not
     *  (yet) recorded. */
    std::optional<Entry>
    find(uint32_t h, uint64_t id, uint8_t attempt) const
    {
        return entry(liveSlot(h, id), attempt);
    }

    /**
     * Lookup with the retry clamp: the entry for the highest
     * recorded attempt <= @p attempt. Used once an id is closed, so
     * a lane that (through divergent queue timing) wants more
     * attempts than the generator made still completes with the
     * shared stream's final outcome. nullopt when the id carries no
     * entries at all (the generator expired it before the device).
     */
    std::optional<Entry>
    findClamped(uint32_t h, uint64_t id, uint8_t attempt) const
    {
        const Slot &s = liveSlot(h, id);
        for (uint8_t a = std::min(attempt, s.lastAttempt);; --a) {
            if (const std::optional<Entry> e = entry(s, a))
                return e;
            if (a == 0)
                break;
        }
        return std::nullopt;
    }

    /** True once close() ran for the live id @p id. */
    bool
    closed(uint32_t h, uint64_t id) const
    {
        return liveSlot(h, id).closed;
    }

    /** The one listener, fired on append and close. */
    void setListener(Listener fn) { listener_ = std::move(fn); }

    /** Ids open and not yet fully released. */
    size_t live() const { return slots_.live(); }

    /** Highest live() so far. */
    size_t peakLive() const { return peakLive_; }

    /** Slots the arena ever created. The free list reuses a
     *  released slot before creating one, so this equals
     *  peakLive(). */
    size_t peakSlots() const { return slots_.slots(); }

    /** Retry-table probes so far (inserts, lookups and erases of
     *  attempts >= 1): 0 while the device fails nothing. */
    uint64_t hashedLookups() const { return hashedLookups_; }

  private:
    /** One live id: 24 bytes. */
    struct Slot
    {
        /** The id the slot holds; 0 while the slot is free. */
        uint64_t id = 0;
        /** The first attempt's outcome, once recorded. */
        sim::Time duration = 0;
        /** Holders left; the next free handle while free. */
        uint32_t holders = 0;
        BioStatus status = BioStatus::Ok;
        bool recorded = false;
        uint8_t lastAttempt = 0;
        bool closed = false;
    };
    static_assert(sizeof(Slot) <= 24);

    /** Retry attempts share the retry table, keyed by id with the
     *  attempt in the top byte (bio ids stay far below 2^56). */
    static uint64_t
    retryKey(uint64_t id, uint8_t attempt)
    {
        return id | (uint64_t{attempt} << 56);
    }

    Slot &
    liveSlot(uint32_t h, uint64_t id)
    {
        sim::panicIf(h >= slots_.slots() || slots_[h].id != id,
                     "ServiceLog: id is not live in the handle's "
                     "slot");
        return slots_[h];
    }

    const Slot &
    liveSlot(uint32_t h, uint64_t id) const
    {
        return const_cast<ServiceLog *>(this)->liveSlot(h, id);
    }

    std::optional<Entry>
    entry(const Slot &s, uint8_t attempt) const
    {
        if (attempt == 0) {
            if (!s.recorded)
                return std::nullopt;
            return Entry{s.duration, s.status};
        }
        ++hashedLookups_;
        const sim::IdTable<Entry>::Cell *r =
            retries_.find(retryKey(s.id, attempt));
        if (r == nullptr)
            return std::nullopt;
        return r->value;
    }

    void
    notify(uint32_t h, uint64_t id)
    {
        if (listener_)
            listener_(h, id);
    }

    sim::SlotPool<Slot, &Slot::holders> slots_;
    /** Attempts >= 1, keyed by retryKey(). */
    sim::IdTable<Entry> retries_;
    Listener listener_;
    size_t peakLive_ = 0;
    mutable uint64_t hashedLookups_ = 0;
};

} // namespace iocost::blk

#endif // IOCOST_BLK_SERVICE_LOG_HH
