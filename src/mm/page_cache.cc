#include "mm/page_cache.hh"

#include <algorithm>
#include <memory>

#include "stat/telemetry.hh"

namespace iocost::mm {

PageCache::PageCache(sim::Simulator &sim, blk::BlockLayer &layer,
                     PageCacheConfig cfg)
    : sim_(sim), layer_(layer), cfg_(cfg), rng_(sim.forkRng())
{
    flushTimer_.emplace(sim_, cfg_.wbInterval, [this] {
        flushPass();
        publishTelemetry();
    });
    flushTimer_->start();
}

CacheCgroupStats &
PageCache::st(cgroup::CgroupId cg)
{
    if (cg >= stats_.size())
        stats_.resize(cg + 1);
    return stats_[cg];
}

const CacheCgroupStats &
PageCache::stats(cgroup::CgroupId cg) const
{
    static const CacheCgroupStats empty;
    if (cg >= stats_.size())
        return empty;
    return stats_[cg];
}

void
PageCache::addSpan(cgroup::CgroupId cg, uint64_t bytes)
{
    st(cg).span += bytes;
}

void
PageCache::setDirtyLimit(cgroup::CgroupId cg, uint64_t bytes)
{
    st(cg).dirtyLimitOverride = bytes;
}

size_t
PageCache::pendingOps() const
{
    size_t n = 0;
    for (const OpSlot &sl : slots_)
        n += sl.inUse ? 1 : 0;
    return n;
}

bool
PageCache::overDirtyLimit(const CacheCgroupStats &s) const
{
    // The global wall counts dirty plus under-writeback bytes, like
    // the kernel's dirty_ratio (both still occupy the cache and the
    // flusher has not proven it can keep up).
    const auto hard = static_cast<uint64_t>(
        cfg_.dirtyRatio * static_cast<double>(cfg_.cacheBytes));
    if (totalDirty_ + wbInflight_ > hard)
        return true;
    uint64_t cg_limit = s.dirtyLimitOverride;
    if (cg_limit == 0 && cfg_.cgroupDirtyRatio > 0.0) {
        cg_limit = static_cast<uint64_t>(
            cfg_.cgroupDirtyRatio *
            static_cast<double>(cfg_.cacheBytes));
    }
    return cg_limit > 0 && s.dirty + s.writeback > cg_limit;
}

void
PageCache::evictForSpace()
{
    // Evict clean pages from the biggest clean-holder (ties: lowest
    // id) until the cache fits. Dirty and under-writeback pages are
    // pinned; if only those remain the cache temporarily overshoots
    // — which is exactly the pressure the dirty wall then absorbs.
    while (totalCached_ > cfg_.cacheBytes) {
        cgroup::CgroupId victim = cgroup::kNone;
        uint64_t biggest = 0;
        for (cgroup::CgroupId cg = 0; cg < stats_.size(); ++cg) {
            if (stats_[cg].cachedClean > biggest) {
                biggest = stats_[cg].cachedClean;
                victim = cg;
            }
        }
        if (victim == cgroup::kNone)
            break;
        const uint64_t chunk = std::min(
            biggest, totalCached_ - cfg_.cacheBytes);
        stats_[victim].cachedClean -= chunk;
        totalCached_ -= chunk;
    }
}

void
PageCache::write(cgroup::CgroupId cg, uint64_t offset,
                 uint64_t bytes, DoneFn done)
{
    CacheCgroupStats &s = st(cg);
    s.bufferedWriteBytes += bytes;

    // A fraction of the write lands on pages already cached clean
    // (proportional to the cgroup's clean coverage of its span):
    // those convert in place. The remainder allocates fresh cache.
    uint64_t from_clean = 0;
    if (s.span > 0 && s.cachedClean > 0) {
        const double clean_frac = std::min(
            1.0, static_cast<double>(s.cachedClean) /
                     static_cast<double>(s.span));
        from_clean = std::min(
            s.cachedClean,
            static_cast<uint64_t>(
                clean_frac * static_cast<double>(bytes)));
    }
    s.cachedClean -= from_clean;
    s.dirty += bytes;
    totalDirty_ += bytes;
    totalCached_ += bytes - from_clean;
    evictForSpace();

    // Record the dirty range as writeback extents, back-merging
    // contiguous same-cgroup dirt up to one bio's worth.
    const sim::Time now = sim_.now();
    uint64_t left = bytes;
    uint64_t at = offset;
    while (left > 0) {
        const auto chunk = static_cast<uint32_t>(std::min<uint64_t>(
            left, cfg_.wbIoBytes));
        if (!queue_.empty()) {
            DirtyExtent &back = queue_.back();
            if (back.cg == cg && back.bytes > 0 &&
                back.offset + back.bytes == at &&
                back.bytes + chunk <= cfg_.wbIoBytes) {
                back.bytes += chunk;
                at += chunk;
                left -= chunk;
                continue;
            }
        }
        DirtyExtent ext;
        ext.dirtiedAt = now;
        ext.offset = at;
        ext.bytes = chunk;
        ext.cg = cg;
        queue_.push_back(ext);
        at += chunk;
        left -= chunk;
    }

    const auto bg = static_cast<uint64_t>(
        cfg_.dirtyBackgroundRatio *
        static_cast<double>(cfg_.cacheBytes));
    if (totalDirty_ > bg)
        kickFlusher();

    if (overDirtyLimit(s)) {
        // balance_dirty_pages(): the writer outran the flusher and
        // stalls until its dirt drains below the wall.
        ++s.throttleStalls;
        throttled_.push_back(parkOp(cg, OpKind::ThrottledWrite, 0,
                                    std::move(done)));
        return;
    }
    finishWithDebtDelay(cg, std::move(done));
}

void
PageCache::read(cgroup::CgroupId cg, uint64_t offset,
                uint64_t bytes, DoneFn done)
{
    CacheCgroupStats &s = st(cg);
    const uint64_t cached = s.cachedClean + s.dirty + s.writeback;
    const double hit_p =
        s.span > 0 ? std::min(1.0, static_cast<double>(cached) /
                                       static_cast<double>(s.span))
                   : 0.0;
    // One draw per read whatever the outcome: the RNG stream stays
    // aligned across configurations that only differ in hit rate.
    const bool hit = rng_.uniform() < hit_p;
    if (hit) {
        s.readHitBytes += bytes;
        done();
        return;
    }
    s.readMissBytes += bytes;

    // Miss: an ordinary throttleable device read charged to the
    // reader; the slot carries the fill size and the continuation.
    const uint32_t slot = parkOp(cg, OpKind::ReadMiss, bytes,
                                 std::move(done));
    blk::BioPtr bio = blk::Bio::make(
        blk::Op::Read, offset,
        static_cast<uint32_t>(
            std::min<uint64_t>(bytes, UINT32_MAX)),
        cg, [this, slot](const blk::Bio &) { onReadFill(slot); });
    layer_.submit(std::move(bio));
}

void
PageCache::onReadFill(uint32_t slot)
{
    OpSlot &sl = slots_[slot];
    CacheCgroupStats &s = st(sl.cg);
    s.cachedClean += sl.target;
    totalCached_ += sl.target;
    evictForSpace();
    DoneFn done = std::move(sl.done);
    freeSlot(slot);
    done();
}

void
PageCache::fsync(cgroup::CgroupId cg, DoneFn done)
{
    CacheCgroupStats &s = st(cg);
    ++s.fsyncs;
    const uint64_t pending = s.dirty + s.writeback;
    if (pending == 0) {
        // Nothing to wait for; the syscall still pays any debt.
        finishWithDebtDelay(cg, std::move(done));
        return;
    }
    // Wait for every byte dirty at this instant to be cleaned.
    // cleanedBytes is monotonic, so dirt added after the call can
    // neither satisfy nor starve the barrier.
    const uint64_t target = s.cleanedBytes + pending;
    fsyncWaiters_.push_back(
        parkOp(cg, OpKind::Fsync, target, std::move(done)));
    flushForFsync(cg);
}

uint32_t
PageCache::parkOp(cgroup::CgroupId cg, OpKind kind, uint64_t target,
                  DoneFn done)
{
    uint32_t id;
    if (freeSlot_ != kNoSlot) {
        id = freeSlot_;
        freeSlot_ = slots_[id].nextFree;
    } else {
        id = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    OpSlot &sl = slots_[id];
    sl.done = std::move(done);
    sl.target = target;
    sl.parkedAt = sim_.now();
    sl.cg = cg;
    sl.kind = kind;
    sl.inUse = true;
    sl.nextFree = kNoSlot;
    return id;
}

void
PageCache::freeSlot(uint32_t slot)
{
    OpSlot &sl = slots_[slot];
    sl.done.reset();
    sl.inUse = false;
    sl.nextFree = freeSlot_;
    freeSlot_ = slot;
}

void
PageCache::releaseOp(uint32_t slot)
{
    OpSlot &sl = slots_[slot];
    const cgroup::CgroupId cg = sl.cg;
    if (sl.kind == OpKind::ThrottledWrite)
        st(cg).throttleTime += sim_.now() - sl.parkedAt;
    DoneFn done = std::move(sl.done);
    freeSlot(slot);
    finishWithDebtDelay(cg, std::move(done));
}

void
PageCache::kickFlusher()
{
    if (kickPending_)
        return;
    kickPending_ = true;
    kickEvent_ = sim_.after(0, [this] {
        kickPending_ = false;
        flushPass();
    });
}

void
PageCache::trimQueue()
{
    while (!queue_.empty() && queue_.front().bytes == 0)
        queue_.pop_front();
}

void
PageCache::flushPass()
{
    const auto bg = static_cast<uint64_t>(
        cfg_.dirtyBackgroundRatio *
        static_cast<double>(cfg_.cacheBytes));
    const sim::Time now = sim_.now();
    while (wbInflight_ < cfg_.maxWbInflight) {
        trimQueue();
        if (queue_.empty())
            break;
        const DirtyExtent &ext = queue_.front();
        const bool expired =
            now - ext.dirtiedAt >= cfg_.dirtyExpire;
        if (!expired && totalDirty_ + wbInflight_ <= bg)
            break;
        const DirtyExtent copy = ext;
        queue_.pop_front();
        issueExtent(copy);
    }
}

void
PageCache::flushForFsync(cgroup::CgroupId cg)
{
    // Integrity beats fairness: issue every one of the cgroup's
    // extents right now, ignoring the congestion window. Mid-queue
    // extents are tombstoned in place (bytes = 0) so extraction
    // stays linear; trimQueue() reaps them from the head.
    for (size_t i = 0; i < queue_.size(); ++i) {
        DirtyExtent &ext = queue_[i];
        if (ext.cg != cg || ext.bytes == 0)
            continue;
        const DirtyExtent copy = ext;
        ext.bytes = 0;
        issueExtent(copy);
    }
    trimQueue();
}

void
PageCache::issueExtent(const DirtyExtent &ext)
{
    CacheCgroupStats &s = st(ext.cg);
    s.dirty -= ext.bytes;
    s.writeback += ext.bytes;
    s.wbIssuedBytes += ext.bytes;
    totalDirty_ -= ext.bytes;
    wbInflight_ += ext.bytes;

    // Cgroup writeback attribution (§3.5) or the historical
    // root-attributed flusher, per configuration. The stats always
    // follow the dirtier; only the charged cgroup changes.
    const cgroup::CgroupId charge =
        cfg_.chargeWbToDirtier ? ext.cg : cgroup::kRoot;
    blk::BioPtr bio = blk::Bio::make(
        blk::Op::Write, ext.offset, ext.bytes, charge,
        [this, cg = ext.cg, bytes = ext.bytes](const blk::Bio &b) {
            onWbComplete(cg, bytes,
                         b.status != blk::BioStatus::Ok);
        });
    bio->wb = true;
    layer_.submit(std::move(bio));
}

void
PageCache::onWbComplete(cgroup::CgroupId cg, uint32_t bytes,
                        bool failed)
{
    CacheCgroupStats &s = st(cg);
    s.writeback -= bytes;
    s.cachedClean += bytes;
    // Failed writeback still cleans the page in this model (the
    // kernel redirties; we fold the retry into the error counter so
    // fsync barriers and dirty walls can never wedge on a dead
    // device — the chaos benches rely on completions always
    // arriving).
    s.cleanedBytes += bytes;
    if (failed)
        ++s.wbFailed;
    wbInflight_ -= bytes;

    wakeWaiters();

    // Congestion may have parked work behind this completion.
    const auto bg = static_cast<uint64_t>(
        cfg_.dirtyBackgroundRatio *
        static_cast<double>(cfg_.cacheBytes));
    if (totalDirty_ > bg && !queue_.empty())
        kickFlusher();
}

void
PageCache::wakeWaiters()
{
    // Re-entrancy guard: releasing an operation runs user code that
    // can park or complete further operations synchronously. The
    // outer call keeps rescanning until a full pass releases
    // nothing, so nested wake conditions cannot be missed.
    if (waking_)
        return;
    waking_ = true;
    bool released = true;
    while (released) {
        released = false;
        for (size_t i = 0; i < fsyncWaiters_.size();) {
            const uint32_t id = fsyncWaiters_[i];
            const OpSlot &sl = slots_[id];
            if (st(sl.cg).cleanedBytes >= sl.target) {
                fsyncWaiters_[i] = fsyncWaiters_.back();
                fsyncWaiters_.pop_back();
                releaseOp(id);
                released = true;
            } else {
                ++i;
            }
        }
        for (size_t i = 0; i < throttled_.size();) {
            const uint32_t id = throttled_[i];
            const OpSlot &sl = slots_[id];
            if (!overDirtyLimit(st(sl.cg))) {
                throttled_[i] = throttled_.back();
                throttled_.pop_back();
                releaseOp(id);
                released = true;
            } else {
                ++i;
            }
        }
    }
    waking_ = false;
}

void
PageCache::finishWithDebtDelay(cgroup::CgroupId cg, DoneFn done)
{
    sim::Time delay = 0;
    if (blk::IoController *ctl = layer_.controller())
        delay = ctl->userspaceDelay(cg);
    if (delay > 0) {
        sim_.after(delay, std::move(done));
    } else {
        done();
    }
}

void
PageCache::publishTelemetry()
{
    stat::Telemetry &tel = layer_.telemetry();
    if (!tel.enabled())
        return;
    const sim::Time now = sim_.now();
    tel.emit(now, "wb", cgroup::kRoot, "dirty_bytes",
             static_cast<double>(totalDirty_));
    tel.emit(now, "wb", cgroup::kRoot, "wb_inflight_bytes",
             static_cast<double>(wbInflight_));
    tel.emit(now, "wb", cgroup::kRoot, "cached_bytes",
             static_cast<double>(totalCached_));
}

} // namespace iocost::mm
