/**
 * @file
 * BioPool: a slab/free-list arena recycling Bio objects.
 *
 * The paper's headline operational claim is that IOCost adds
 * negligible per-IO overhead at millions of IOPS (Fig. 9); the
 * kernel gets there by never allocating on the bio fast path (slab
 * bio_sets, per-cgroup annotations inline in the bio). The simulated
 * stack used to pay 3–5 heap allocations per bio — make_unique in
 * Bio::make, a make_shared<BioPtr> trampoline per device submit, and
 * std::function completion captures — which bounded every figure
 * bench. BioPool closes that gap:
 *
 *  - bios live in slabs (kSlabBios per allocation) and recycle
 *    through an intrusive free list linked through each free bio's
 *    `merged` word, so steady state performs no global allocator
 *    calls and the free list itself costs no memory (a side vector
 *    of pointers would grow to the largest backlog ever released);
 *  - a back-merge chains the absorbed bio onto the survivor
 *    (Bio::merged), and releasing the survivor returns the whole
 *    chain, so the merge path allocates nothing either;
 *  - under IOCOST_SANITIZE (ASan) a free bio is poisoned except its
 *    free-list link word, so use-after-release and double-release
 *    of a BioPtr trip the sanitizer exactly like a heap
 *    use-after-free would;
 *  - a process-wide bypass flag reverts Bio::make to plain heap
 *    allocation — the pre-pool behaviour — which the determinism
 *    tests use to prove pooling cannot change simulated results and
 *    the bio-path bench uses as its pinned seed-shaped baseline.
 *
 * Sizes (pinned in test_bio_pool): a Bio is 120 bytes, 40 of them
 * inline completion storage, so a pooled backlog of N queued bios
 * costs N * 120 bytes plus its slabs' one allocation per 64 bios.
 *
 * One pool per thread (BioPool::local): each fleet worker owns a
 * private arena, so pooling needs no locks and parallel runs stay
 * byte-identical to sequential ones. Pool-backed bios must not
 * outlive their pool; every simulation drains its bios before the
 * owning thread exits, and the thread-local arena outlives any
 * simulation stack constructed on that thread.
 */

#ifndef IOCOST_BLK_BIO_POOL_HH
#define IOCOST_BLK_BIO_POOL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "blk/bio.hh"

#if defined(__SANITIZE_ADDRESS__)
#define IOCOST_BIO_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IOCOST_BIO_POOL_ASAN 1
#endif
#endif

#ifdef IOCOST_BIO_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace iocost::blk {

/**
 * Slab-backed free-list arena for Bio objects. Not thread safe; use
 * one pool per thread (see BioPool::local()).
 */
class BioPool
{
  public:
    /** Bios per slab allocation. */
    static constexpr size_t kSlabBios = 64;

    BioPool() = default;

    /**
     * Slabs are freed with the pool; outstanding BioPtrs must be
     * gone by now (simulations drain before teardown).
     */
    ~BioPool()
    {
        for (auto &slab : slabs_)
            unpoisonSlab(slab.get());
        // Unhook the free-list links, or the slab destructors would
        // follow them as merge chains.
        while (freeHead_ != nullptr)
            freeHead_ = freeHead_->merged.release();
    }

    BioPool(const BioPool &) = delete;
    BioPool &operator=(const BioPool &) = delete;

    /** Draw a bio from the arena and initialize it for submission. */
    BioPtr
    make(Op op, uint64_t offset, uint32_t size,
         cgroup::CgroupId cg, BioEndFn on_complete = {})
    {
        Bio *bio = bypass_.load(std::memory_order_relaxed)
                       ? new Bio
                       : acquire();
        bio->id = 0;
        bio->op = op;
        bio->offset = offset;
        bio->size = size;
        bio->cgroup = cg;
        bio->swap = false;
        bio->meta = false;
        bio->wb = false;
        bio->submitTime = 0;
        bio->dispatchTime = 0;
        bio->status = BioStatus::Ok;
        bio->retries = 0;
        bio->logHandle = 0;
        bio->onComplete = std::move(on_complete);
        bio->controllerScratch = 0.0;
        return BioPtr(bio);
    }

    /**
     * Return one bio to the free list (called by BioDeleter, which
     * has already detached its merge chain).
     */
    void
    release(Bio *bio) noexcept
    {
        // Drop captured state now (completion closures may hold
        // keep-alive references).
        bio->onComplete.reset();
        --outstanding_;
        pushFree(bio);
    }

    /** The calling thread's arena (what Bio::make draws from). */
    static BioPool &
    local()
    {
        static thread_local BioPool pool;
        return pool;
    }

    /**
     * Process-wide escape hatch: when set, make() heap-allocates
     * every bio (the pre-pool behaviour) on all threads. Used by the
     * determinism tests and the bio-path bench baseline; never in
     * production paths.
     */
    static void
    setBypass(bool on)
    {
        bypass_.store(on, std::memory_order_relaxed);
    }

    /** @return true while the bypass flag is set. */
    static bool
    bypassed()
    {
        return bypass_.load(std::memory_order_relaxed);
    }

    /** Pool-backed bios currently owned by callers. */
    uint64_t outstanding() const { return outstanding_; }

    /** Maximum outstanding() ever observed. */
    uint64_t highWater() const { return highWater_; }

    /** Slab slots constructed so far (pool capacity). */
    uint64_t created() const { return created_; }

    /** Total acquisitions served by this pool. */
    uint64_t acquired() const { return acquired_; }

    /**
     * Lower bound on acquisitions served by recycling: every draw
     * past one-per-slot must have reused a released bio.
     */
    uint64_t
    recycled() const
    {
        return acquired_ > created_ ? acquired_ - created_ : 0;
    }

  private:
    Bio *
    acquire()
    {
        if (freeHead_ == nullptr)
            grow();
        Bio *bio = freeHead_;
        unpoison(bio);
        freeHead_ = bio->merged.release();
        ++acquired_;
        if (++outstanding_ > highWater_)
            highWater_ = outstanding_;
        return bio;
    }

    void
    grow()
    {
        slabs_.push_back(std::make_unique<Bio[]>(kSlabBios));
        Bio *slab = slabs_.back().get();
        for (size_t i = 0; i < kSlabBios; ++i) {
            slab[i].pool = this;
            pushFree(&slab[i]);
        }
        created_ += kSlabBios;
    }

    /**
     * Push a free bio (empty merge chain) onto the free list, linked
     * through its `merged` word. It stays poisoned until drawn.
     */
    void
    pushFree(Bio *bio) noexcept
    {
        bio->merged.reset(freeHead_); // was empty: nothing released
        freeHead_ = bio;
        poison(bio);
    }

    /** Poison a free bio, all but its free-list link. */
    static void
    poison(Bio *bio)
    {
#ifdef IOCOST_BIO_POOL_ASAN
        ASAN_POISON_MEMORY_REGION(bio, sizeof(Bio));
        ASAN_UNPOISON_MEMORY_REGION(&bio->merged, sizeof(bio->merged));
#else
        (void)bio;
#endif
    }

    static void
    unpoison(Bio *bio)
    {
#ifdef IOCOST_BIO_POOL_ASAN
        ASAN_UNPOISON_MEMORY_REGION(bio, sizeof(Bio));
#else
        (void)bio;
#endif
    }

    void
    unpoisonSlab(Bio *slab)
    {
#ifdef IOCOST_BIO_POOL_ASAN
        // delete[] runs destructors over the slab; lift the poison
        // first so teardown doesn't read as use-after-release.
        ASAN_UNPOISON_MEMORY_REGION(slab,
                                    sizeof(Bio) * kSlabBios);
#else
        (void)slab;
#endif
    }

    inline static std::atomic<bool> bypass_{false};

    std::vector<std::unique_ptr<Bio[]>> slabs_;
    /** Head of the free list; each free bio's `merged` links the next. */
    Bio *freeHead_ = nullptr;
    uint64_t outstanding_ = 0;
    uint64_t highWater_ = 0;
    uint64_t created_ = 0;
    uint64_t acquired_ = 0;
};

inline void
BioDeleter::operator()(Bio *bio) const noexcept
{
    // Walk the merge chain iteratively, each bio to its own owner: a
    // chain can mix pooled bios with heap clones a snapshot restored.
    while (bio != nullptr) {
        Bio *next = bio->merged.release();
        if (bio->pool)
            bio->pool->release(bio);
        else
            delete bio;
        bio = next;
    }
}

inline BioPtr
Bio::make(Op op, uint64_t offset, uint32_t size,
          cgroup::CgroupId cg, BioEndFn on_complete)
{
    return BioPool::local().make(op, offset, size, cg,
                                 std::move(on_complete));
}

inline BioPtr
cloneBio(const Bio &src)
{
    // Heap, not pool: see the declaration in bio.hh. The snapshot
    // path is deliberately outside the zero-alloc budget.
    BioPtr head;
    BioPtr *tail = &head;
    for (const Bio *b = &src; b != nullptr; b = b->merged.get()) {
        Bio *out = new Bio;
        out->id = b->id;
        out->offset = b->offset;
        out->size = b->size;
        out->cgroup = b->cgroup;
        out->op = b->op;
        out->swap = b->swap;
        out->meta = b->meta;
        out->wb = b->wb;
        out->status = b->status;
        out->retries = b->retries;
        out->logHandle = b->logHandle;
        out->submitTime = b->submitTime;
        out->dispatchTime = b->dispatchTime;
        out->onComplete = b->onComplete.clone();
        out->controllerScratch = b->controllerScratch;
        tail->reset(out);
        tail = &out->merged;
    }
    return head;
}

} // namespace iocost::blk

#endif // IOCOST_BLK_BIO_POOL_HH
