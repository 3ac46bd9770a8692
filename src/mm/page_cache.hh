/**
 * @file
 * Page cache and dirty writeback: the buffered-IO half of the MM/IO
 * boundary (paper §3.5, Figs. 14/15).
 *
 * Buffered writers never talk to the block layer directly: they
 * dirty pages at memory speed and a background flusher issues the
 * actual writes later, from a kernel thread. Without cgroup
 * writeback attribution that flusher IO runs at root priority — a
 * low-priority batch job can launder an arbitrary write flood
 * through the page cache and starve everyone (the historical
 * blk-throttle blind spot). With attribution, each writeback bio is
 * charged to the *dirtying* cgroup and carries the bio wb flag, so
 * iocost turns its cost into debt (§3.5) and collects that debt by
 * pacing the dirtier at return-to-userspace — exactly the swap/meta
 * treatment, extended to the third kind of can't-wait IO.
 *
 * The model:
 *
 *  - per-cgroup clean/dirty/writeback byte accounting over a fixed
 *    cache capacity, with clean-page eviction from the biggest
 *    clean-holder when the cache fills;
 *  - buffered writes dirty pages instantly; a global dirty ratio
 *    (and optional per-cgroup limit) stalls writers that outrun the
 *    flusher — the kernel's balance_dirty_pages();
 *  - a FIFO of dirty extents with back-merge; the flusher issues
 *    expired extents every interval and drains above the background
 *    ratio, bounded by a writeback-congestion window;
 *  - fsync flushes the calling cgroup's extents immediately
 *    (ignoring congestion) and completes once every byte dirty at
 *    the call instant has been cleaned;
 *  - buffered reads hit with probability cached/span (the cgroup's
 *    cache footprint over its declared working-set span); misses
 *    are ordinary throttleable reads charged to the reader that
 *    fill the cache on completion.
 *
 * Everything is snapshot-safe: pending operations live in an
 * explicit slot arena (generation-counted, freelisted) whose
 * completion callbacks are cloneable InlineFunctions, mirroring the
 * event queue — deliberately NOT the shared_ptr AsyncBarrier idiom
 * MemoryManager uses, which is what keeps MM out of Host snapshots.
 */

#ifndef IOCOST_MM_PAGE_CACHE_HH
#define IOCOST_MM_PAGE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "sim/inline_function.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/state.hh"

namespace iocost::mm {

/** Static page-cache and writeback configuration. */
struct PageCacheConfig
{
    /** Page cache capacity (clean + dirty + under-writeback). */
    uint64_t cacheBytes = 512ull << 20;

    /** Background writeback starts above this fraction of the
     *  cache (vm.dirty_background_ratio). */
    double dirtyBackgroundRatio = 0.10;

    /** Buffered writers stall above this fraction of the cache
     *  (vm.dirty_ratio — the balance_dirty_pages hard wall). */
    double dirtyRatio = 0.20;

    /**
     * Optional per-cgroup dirty limit as a fraction of the cache;
     * 0 disables. A single cgroup stalls at this wall even while
     * the global ratio is fine (memcg dirty throttling).
     */
    double cgroupDirtyRatio = 0.0;

    /** Periodic flusher wakeup (vm.dirty_writeback_centisecs). */
    sim::Time wbInterval = 500 * sim::kMsec;

    /** Age at which a dirty extent is written back regardless of
     *  pressure (vm.dirty_expire_centisecs). */
    sim::Time dirtyExpire = 5 * sim::kSec;

    /** Maximum bytes per writeback bio (extent merge cap). */
    uint32_t wbIoBytes = 256 * 1024;

    /**
     * Writeback congestion window: the background flusher stops
     * issuing while more than this much writeback is in flight.
     * fsync ignores it (integrity beats fairness).
     */
    uint64_t maxWbInflight = 32ull << 20;

    /**
     * Whether writeback bios are charged to the dirtying cgroup
     * (cgroup writeback + MM-integrated controllers, §3.5) or
     * issued at root attribution like the historical flusher
     * threads — which is what controllers without writeback
     * integration actually see, and why a dirty flood runs at root
     * priority under them.
     */
    bool chargeWbToDirtier = true;
};

/**
 * Per-cgroup page-cache counters. Trivially copyable by design:
 * the snapshot path serializes the whole table with one pods() call.
 */
struct CacheCgroupStats
{
    /** Clean cached bytes (evictable). */
    uint64_t cachedClean = 0;
    /** Dirty bytes awaiting writeback. */
    uint64_t dirty = 0;
    /** Bytes with writeback IO in flight. */
    uint64_t writeback = 0;
    /**
     * Cumulative bytes cleaned (writeback completions, including
     * failed attempts — the page is no longer dirty either way).
     * Monotonic: fsync waits for cleanedBytes to reach the value
     * it computed at call time, which cannot livelock on new dirt.
     */
    uint64_t cleanedBytes = 0;
    /** Cumulative buffered-write bytes. */
    uint64_t bufferedWriteBytes = 0;
    /** Cumulative read bytes served from cache. */
    uint64_t readHitBytes = 0;
    /** Cumulative read bytes that missed and went to the device. */
    uint64_t readMissBytes = 0;
    /** Cumulative writeback bytes issued on this cgroup's behalf. */
    uint64_t wbIssuedBytes = 0;
    /** Writeback bios that completed with an error. */
    uint64_t wbFailed = 0;
    /** fsync calls. */
    uint64_t fsyncs = 0;
    /** Writes stalled at a dirty limit. */
    uint64_t throttleStalls = 0;
    /** Total time spent in dirty-limit stalls. */
    sim::Time throttleTime = 0;
    /**
     * Declared working-set span (bytes of distinct file data the
     * cgroup's workloads address); denominator of the cache-hit
     * probability. 0 = never hits.
     */
    uint64_t span = 0;
    /** Per-cgroup dirty limit override in bytes; 0 = use ratios. */
    uint64_t dirtyLimitOverride = 0;
};

/**
 * The page cache and its writeback flusher.
 */
class PageCache : public sim::Snapshottable
{
  public:
    /**
     * Completion callback for buffered operations. Inline and
     * cloneable (captures must be copyable): pending operations are
     * part of the host snapshot image.
     */
    using DoneFn = sim::InlineFunction<void(), 48>;

    PageCache(sim::Simulator &sim, blk::BlockLayer &layer,
              PageCacheConfig cfg);

    PageCache(const PageCache &) = delete;
    PageCache &operator=(const PageCache &) = delete;

    /**
     * Buffered write of @p bytes at @p offset for @p cg: dirties
     * pages at memory speed, kicks background writeback above the
     * background ratio, and stalls the writer at the hard dirty
     * wall. @p done fires when the write would have returned to
     * userspace — including any dirty-limit stall and the
     * controller's return-to-userspace debt delay (how iocost
     * collects writeback debt from the dirtier, §3.5).
     */
    void write(cgroup::CgroupId cg, uint64_t offset, uint64_t bytes,
               DoneFn done);

    /**
     * Buffered read of @p bytes for @p cg: hits complete at memory
     * speed with probability cachedBytes/span; misses issue an
     * ordinary throttleable device read charged to the reader and
     * fill the cache on completion.
     */
    void read(cgroup::CgroupId cg, uint64_t offset, uint64_t bytes,
              DoneFn done);

    /**
     * Flush @p cg's dirty extents immediately (ignoring the
     * congestion window) and fire @p done once every byte that was
     * dirty or under writeback at the call instant has been
     * cleaned. The fsync barrier of the paper's Fig. 15 workload.
     */
    void fsync(cgroup::CgroupId cg, DoneFn done);

    /** Grow @p cg's declared working-set span (additive: each
     *  workload registers the region it addresses). */
    void addSpan(cgroup::CgroupId cg, uint64_t bytes);

    /** Per-cgroup dirty limit override in bytes (0 = ratios). */
    void setDirtyLimit(cgroup::CgroupId cg, uint64_t bytes);

    /** Per-cgroup counters. */
    const CacheCgroupStats &stats(cgroup::CgroupId cg) const;

    /** Total dirty bytes across all cgroups. */
    uint64_t totalDirty() const { return totalDirty_; }

    /** Total cached bytes (clean + dirty + writeback). */
    uint64_t totalCached() const { return totalCached_; }

    /** Writeback bytes currently in flight. */
    uint64_t wbInflight() const { return wbInflight_; }

    /** Buffered operations currently parked (stalls + fsyncs). */
    size_t pendingOps() const;

    /** The static configuration. */
    const PageCacheConfig &config() const { return cfg_; }

    /**
     * @name Snapshot support. Fully covered: parked operations,
     * the dirty-extent FIFO, in-flight-writeback accounting and
     * the flusher timers all round-trip (tests fuzz restore points
     * inside stalls and fsync barriers).
     * @{
     */
    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }
    /** @} */

  private:
    /** One dirty file extent awaiting writeback (FIFO order ==
     *  dirtying order; bytes == 0 marks a tombstone left by an
     *  fsync's mid-queue extraction). */
    struct DirtyExtent
    {
        sim::Time dirtiedAt = 0;
        uint64_t offset = 0;
        uint32_t bytes = 0;
        cgroup::CgroupId cg = 0;
    };

    /**
     * FIFO ring of dirty extents. Deliberately not a std::deque:
     * steady-state flusher traffic pushes at the back while popping
     * from the front, and a deque allocates a fresh chunk every
     * ~20 extents forever as exhausted front chunks are freed (the
     * `--check-allocs` writeback lane caught exactly that). The
     * ring doubles until it covers the deepest backlog, then stays
     * allocation-free.
     */
    class ExtentRing
    {
      public:
        bool empty() const { return count_ == 0; }
        size_t size() const { return count_; }
        DirtyExtent &operator[](size_t i)
        {
            return buf_[(head_ + i) % buf_.size()];
        }
        const DirtyExtent &operator[](size_t i) const
        {
            return buf_[(head_ + i) % buf_.size()];
        }
        const DirtyExtent &front() const { return (*this)[0]; }
        DirtyExtent &back() { return (*this)[count_ - 1]; }

        void
        push_back(const DirtyExtent &ext)
        {
            if (count_ == buf_.size())
                grow();
            buf_[(head_ + count_) % buf_.size()] = ext;
            ++count_;
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) % buf_.size();
            --count_;
        }

        /** Replace the contents with @p flat, front first. */
        void
        assign(const std::vector<DirtyExtent> &flat)
        {
            buf_.assign(std::max<size_t>(flat.size(), 1),
                        DirtyExtent{});
            std::copy(flat.begin(), flat.end(), buf_.begin());
            head_ = 0;
            count_ = flat.size();
        }

      private:
        void
        grow()
        {
            std::vector<DirtyExtent> bigger(
                std::max<size_t>(buf_.size() * 2, 64));
            for (size_t i = 0; i < count_; ++i)
                bigger[i] = (*this)[i];
            buf_ = std::move(bigger);
            head_ = 0;
        }

        std::vector<DirtyExtent> buf_;
        size_t head_ = 0;
        size_t count_ = 0;
    };

    /** What a parked operation is waiting for. */
    enum class OpKind : uint8_t
    {
        /** Dirty-limit stall: released when the writer's limits
         *  clear again. */
        ThrottledWrite,
        /** fsync barrier: released when cleanedBytes reaches
         *  target. */
        Fsync,
        /** Buffered read miss: released by the fill IO's
         *  completion (target carries the fill size). */
        ReadMiss,
    };

    /**
     * One parked buffered operation. Slots live in a
     * generation-counted freelist arena (the event-queue idiom):
     * POD bookkeeping plus one cloneable callback, so the whole
     * table serializes into a snapshot.
     */
    struct OpSlot
    {
        DoneFn done;
        /** Fsync: the cleanedBytes value to wait for.
         *  ThrottledWrite: unused. */
        uint64_t target = 0;
        /** When the operation parked (stall-time accounting). */
        sim::Time parkedAt = 0;
        cgroup::CgroupId cg = 0;
        OpKind kind = OpKind::ThrottledWrite;
        bool inUse = false;
        uint32_t nextFree = kNoSlot;
    };
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    CacheCgroupStats &st(cgroup::CgroupId cg);

    /** Hard dirty wall for @p cg's writers (global + per-cgroup). */
    bool overDirtyLimit(const CacheCgroupStats &s) const;

    /** Evict clean pages until the cache fits its capacity. */
    void evictForSpace();

    /** Park the current operation; returns the slot id. */
    uint32_t parkOp(cgroup::CgroupId cg, OpKind kind,
                    uint64_t target, DoneFn done);

    /** Return a slot to the freelist. */
    void freeSlot(uint32_t slot);

    /** Complete and free a parked operation (debt delay applied). */
    void releaseOp(uint32_t slot);

    /** A read-miss fill completed: populate the cache, run done. */
    void onReadFill(uint32_t slot);

    /** Schedule an immediate flusher pass (coalesced). */
    void kickFlusher();

    /** Periodic flusher: expired extents plus over-background
     *  drain, bounded by the congestion window. */
    void flushPass();

    /** Issue writeback for one extent (the caller already removed
     *  it from the FIFO and checked congestion). */
    void issueExtent(const DirtyExtent &ext);

    /** fsync fast-flush: issue every extent of @p cg now. */
    void flushForFsync(cgroup::CgroupId cg);

    /** A writeback bio completed (any status): account the cleaned
     *  bytes and wake whoever was waiting on them. */
    void onWbComplete(cgroup::CgroupId cg, uint32_t bytes,
                      bool failed);

    /** Wake parked operations whose condition now holds. */
    void wakeWaiters();

    /** Apply the controller's return-to-userspace delay, then
     *  @p done — the debt-collection hook (§3.5). */
    void finishWithDebtDelay(cgroup::CgroupId cg, DoneFn done);

    /** Drop tombstones off the FIFO head. */
    void trimQueue();

    /** Period-level writeback telemetry (source "wb"). */
    void publishTelemetry();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        if constexpr (!Tape::kLoading) {
            sim::panicIf(self.waking_,
                         "PageCache::saveState during a wake pass");
        }

        // The stats deque, the extent ring and the RNG (one array here,
        // not four words) go on the tape as flat copies, which loading
        // copies back.
        std::vector<CacheCgroupStats> flat(self.stats_.begin(),
                                           self.stats_.end());
        t.pods(flat);
        t.value(self.totalCached_);
        t.value(self.totalDirty_);
        t.value(self.wbInflight_);

        std::vector<DirtyExtent> q(self.queue_.size());
        for (size_t i = 0; i < self.queue_.size(); ++i)
            q[i] = self.queue_[i];
        t.pods(q);

        std::vector<uint64_t> rs(4);
        self.rng_.getState(rs.data());
        t.pods(rs);
        if constexpr (Tape::kLoading) {
            self.stats_.assign(flat.begin(), flat.end());
            self.queue_.assign(q);
            self.rng_.setState(rs.data());
        }

        t.template size<uint32_t>(self.slots_);
        for (auto &sl : self.slots_) {
            t.value(sl.inUse);
            t.value(sl.target);
            t.value(sl.parkedAt);
            t.value(sl.cg);
            t.value(sl.kind);
            t.value(sl.nextFree);
            t.callback(sl.done, sl.inUse);
        }
        t.value(self.freeSlot_);
        t.pods(self.throttled_);
        t.pods(self.fsyncWaiters_);

        t.sub(*self.flushTimer_);
        t.value(self.kickPending_);
        self.sim_.events().handle(t, self.kickEvent_);
    }

    sim::Simulator &sim_;
    blk::BlockLayer &layer_;
    PageCacheConfig cfg_;
    sim::Rng rng_;

    std::deque<CacheCgroupStats> stats_;
    uint64_t totalCached_ = 0;
    uint64_t totalDirty_ = 0;
    uint64_t wbInflight_ = 0;

    ExtentRing queue_;

    std::vector<OpSlot> slots_;
    uint32_t freeSlot_ = kNoSlot;
    /** Parked slot ids, in park order (scan-and-release). */
    std::vector<uint32_t> throttled_;
    std::vector<uint32_t> fsyncWaiters_;

    std::optional<sim::PeriodicTimer> flushTimer_;
    bool kickPending_ = false;
    sim::EventHandle kickEvent_;
    /** Transient wakeWaiters() re-entrancy guard (never set across
     *  an event boundary, so it is not snapshot state). */
    bool waking_ = false;
};

} // namespace iocost::mm

#endif // IOCOST_MM_PAGE_CACHE_HH
