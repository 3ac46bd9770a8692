/**
 * @file
 * The bio: the unit of block IO flowing through the simulated stack.
 *
 * Mirrors the kernel's struct bio at the granularity IO controllers
 * care about: operation type, byte offset and size, the issuing
 * cgroup, and flags identifying swap and filesystem-metadata IO
 * (which get special priority-inversion treatment, paper §3.5).
 *
 * Allocation model (mirroring the kernel's bio_set slabs): bios are
 * recycled through a per-thread BioPool arena, so the steady-state
 * submit→throttle→dispatch→complete path never touches the global
 * allocator. A BioPtr is a unique_ptr whose deleter returns the bio
 * to its owning pool instead of freeing it; completion callbacks are
 * move-only InlineFunctions stored inside the bio itself (the
 * kernel's bi_end_io + bi_private, not a heap-allocated closure). A
 * back-merge keeps the absorbed bio, completion and all, on the
 * surviving bio's merge chain, so merging allocates nothing either.
 */

#ifndef IOCOST_BLK_BIO_HH
#define IOCOST_BLK_BIO_HH

#include <cstdint>
#include <memory>
#include <utility>

#include "cgroup/cgroup_tree.hh"
#include "sim/inline_function.hh"
#include "sim/time.hh"

namespace iocost::blk {

/** Block IO operation direction. */
enum class Op : uint8_t
{
    Read,
    Write,
};

/** @return "read" / "write". */
inline const char *
opName(Op op)
{
    return op == Op::Read ? "read" : "write";
}

/**
 * Completion status of a bio — the simulated analogue of the
 * kernel's blk_status_t. Devices set Error when a fault window
 * fails a request; the BlockLayer either retries (resetting the
 * status) or delivers the final failure to the submitter.
 */
enum class BioStatus : uint8_t
{
    /** Completed successfully. */
    Ok,
    /** Failed on the device (after retries were exhausted). */
    Error,
    /** Exceeded the block layer's per-bio timeout. */
    Timeout,
};

/** @return "ok" / "error" / "timeout". */
inline const char *
statusName(BioStatus status)
{
    switch (status) {
    case BioStatus::Ok:
        return "ok";
    case BioStatus::Error:
        return "error";
    case BioStatus::Timeout:
        return "timeout";
    }
    return "?";
}

struct Bio;
class BioPool;

/** Returns a bio and the bios merged into it, each to its owning
 *  pool (or the heap when unpooled). */
struct BioDeleter
{
    void operator()(Bio *bio) const noexcept;
};

/** Bios are owned uniquely and moved through the pipeline. */
using BioPtr = std::unique_ptr<Bio, BioDeleter>;

/**
 * Completion callback delivered to the submitter. Move-only with 40
 * bytes of inline storage: a capture up to that size lives inside
 * the bio and costs no allocation. The largest real one, ZooKeeper's
 * group commit (`[this, pp, batch]`), is exactly 40 bytes; an object
 * pointer, a keep-alive shared_ptr and a scalar take 32. Oversized
 * captures fall back to the heap — fine on cold paths, a bug on the
 * per-IO fast path (the bio-path bench asserts zero steady-state
 * allocations, and test_bio_pool pins every hot capture shape).
 */
using BioEndFn = sim::InlineFunction<void(const Bio &), 40>;

/**
 * One block IO request: 120 bytes, which test_bio_pool pins. A
 * throttled cgroup's backlog is nothing but bios, so these bytes set
 * how much queued IO a simulation holds per megabyte; the three flags
 * share one byte, the small fields and the log handle share one
 * word, and nothing else pads.
 */
struct Bio
{
    /** Monotonic id, assigned by the block layer at submission. */
    uint64_t id = 0;

    /** Byte offset on the device. */
    uint64_t offset = 0;

    /** Transfer size in bytes. */
    uint32_t size = 0;

    /** Issuing (charged) cgroup. */
    cgroup::CgroupId cgroup = cgroup::kRoot;

    /** Operation direction. */
    Op op = Op::Read;

    /**
     * Swap-out / swap-in IO issued by memory reclaim on behalf of the
     * charged cgroup; must not be throttled synchronously (§3.5).
     */
    bool swap : 1 = false;

    /**
     * Filesystem metadata/journal IO; shares the swap path's debt
     * treatment because other groups can be blocked behind it.
     */
    bool meta : 1 = false;

    /**
     * Dirty-page writeback issued by the flusher on behalf of the
     * dirtying cgroup (cgroup writeback attribution). Joins the
     * swap/meta forced-issue path: writeback cannot wait — dirty
     * pages pin memory and fsync barriers queue behind them — so
     * iocost turns the cost into debt instead of throttling (§3.5).
     */
    bool wb : 1 = false;

    /**
     * Completion status, inspected by completion callbacks. Ok on
     * the wire; a device sets Error when fault injection fails the
     * request, and the BlockLayer resolves the final status
     * (retried-to-success, Error, or Timeout) before running
     * completions.
     */
    BioStatus status = BioStatus::Ok;

    /** Retry attempts consumed so far (block-layer requeues). */
    uint8_t retries = 0;

    /**
     * A sweep's ServiceLog handle for this request's id (see
     * ServiceLog::open): set on the generator's bio and copied to
     * every lane copy, so the log indexes the id's slot directly.
     * Unused outside sweeps.
     */
    uint32_t logHandle = 0;

    /** When the bio entered the block layer. */
    sim::Time submitTime = 0;

    /** When the bio was dispatched to the device. */
    sim::Time dispatchTime = 0;

    /** Invoked by the block layer when the bio completes. */
    BioEndFn onComplete;

    /**
     * The bios back-merged into this one, newest first, each owning
     * the one merged before it (the kernel's bi_next list under a
     * request, kept in reverse so a merge is O(1)). The absorbed bios
     * themselves carry their completions, so a merge costs no
     * allocation and nothing grows with the chain; they are released
     * with this bio. A free pooled bio reuses this word as its
     * free-list link (see BioPool).
     */
    BioPtr merged;

    /**
     * Scratch slot for the installed controller (IOCost stores the
     * absolute cost computed at submission so queued bios are not
     * re-classified). Mirrors the kernel's per-bio blkcg annotations.
     */
    double controllerScratch = 0.0;

    /** Owning pool; null for plain heap-allocated bios. */
    BioPool *pool = nullptr;

    /**
     * Back-merge @p other into this bio: this bio grows by its size,
     * and @p other, followed by any chain it already carries, becomes
     * the newest part of the merge chain. O(1), unless @p other
     * carries a chain of its own (a retried merged bio).
     */
    void
    absorb(BioPtr other)
    {
        size += other->size;
        BioPtr own = std::move(other->merged);
        other->merged = std::move(merged);
        merged = std::move(other);
        if (own) {
            BioPtr *oldest = &own;
            while (*oldest)
                oldest = &(*oldest)->merged;
            *oldest = std::move(merged);
            merged = std::move(own);
        }
    }

    /**
     * Run this bio's completion, then those of the bios merged into
     * it, in merge order. Every callback receives this bio: the
     * request as the device served it.
     */
    void
    runCompletions()
    {
        if (onComplete)
            onComplete(*this);
        merged = reversed(std::move(merged)); // oldest first
        for (Bio *b = merged.get(); b != nullptr; b = b->merged.get()) {
            if (b->onComplete)
                b->onComplete(*this);
        }
        merged = reversed(std::move(merged));
    }

    /**
     * Convenience factory: draws from the calling thread's BioPool
     * arena (defined in bio_pool.hh).
     */
    static BioPtr make(Op op, uint64_t offset, uint32_t size,
                       cgroup::CgroupId cg,
                       BioEndFn on_complete = {});

  private:
    /** @p chain with its links reversed; moves only pointers. */
    static BioPtr
    reversed(BioPtr chain)
    {
        BioPtr out;
        while (chain) {
            BioPtr next = std::move(chain->merged);
            chain->merged = std::move(out);
            out = std::move(chain);
            chain = std::move(next);
        }
        return out;
    }
};

/**
 * Deep-copy a bio for the snapshot path: all scalar fields plus
 * cloned completion callbacks (which must have copyable captures —
 * see InlineFunction::clone()), and the same for every bio in its
 * merge chain.
 *
 * The clone is always heap-allocated, never pool-backed: a snapshot
 * image may outlive the taking thread's arena or be destroyed from
 * another thread, and BioPool is thread-local by design. Pool
 * identity never enters simulation logic, so a restored in-flight
 * bio completing as a heap bio is byte-identical to the original
 * completing as a pool bio; the handful of heap clones a restore
 * brings back (bounded by device queue depth) free themselves as
 * they complete. Defined in bio_pool.hh.
 */
BioPtr cloneBio(const Bio &src);

/**
 * Copyable BioPtr holder for event captures.
 *
 * Event lambdas that own an in-flight bio (device completions, the
 * block layer's retry backoff and submission-CPU hops) capture one
 * of these instead of a raw BioPtr: moves behave exactly like
 * BioPtr (same size, noexcept), and the copy constructor — reached
 * only when the event arena is cloned into a snapshot — deep-clones
 * the bio via cloneBio(). That one substitution is what makes every
 * pending event in the simulator snapshot-copyable.
 */
class BioCapture
{
  public:
    explicit BioCapture(BioPtr bio) : bio_(std::move(bio)) {}

    BioCapture(BioCapture &&) noexcept = default;
    BioCapture &operator=(BioCapture &&) noexcept = default;

    BioCapture(const BioCapture &other)
        : bio_(other.bio_ ? cloneBio(*other.bio_) : BioPtr())
    {}

    BioCapture &
    operator=(const BioCapture &other)
    {
        if (this != &other)
            bio_ = other.bio_ ? cloneBio(*other.bio_) : BioPtr();
        return *this;
    }

    /** Move the bio out (the firing path). */
    BioPtr take() { return std::move(bio_); }

    Bio &operator*() { return *bio_; }
    Bio *operator->() { return bio_.get(); }
    explicit operator bool() const { return bio_ != nullptr; }

  private:
    BioPtr bio_;
};

} // namespace iocost::blk

// The pool header completes BioDeleter and Bio::make; including it
// here means every bio user sees the full allocation API.
#include "blk/bio_pool.hh" // IWYU pragma: keep

#endif // IOCOST_BLK_BIO_HH
