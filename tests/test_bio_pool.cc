/**
 * @file
 * Unit tests for the zero-allocation bio hot path: the byte budgets
 * of a bio and an event slot, the BioPool slab/intrusive free-list
 * arena, the pooled BioPtr lifecycle, the merge chain used by the
 * back-merge path (also through a snapshot), and the InlineFunction
 * small-buffer callable the whole path is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "blk/bio.hh"
#include "blk/block_layer.hh"
#include "blk/service_log.hh"
#include "cgroup/cgroup_tree.hh"
#include "controllers/factory.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/device_factory.hh"
#include "host/host.hh"
#include "sim/async.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"
#include "sim/state.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

// ---------------------------------------------------------------
// InlineFunction
// ---------------------------------------------------------------

TEST(InlineFunction, SmallCaptureStoredInlineAndInvokes)
{
    int hits = 0;
    sim::InlineFunction<void(), 48> fn = [&hits] { ++hits; };
    ASSERT_TRUE(static_cast<bool>(fn));
    EXPECT_TRUE(fn.storedInline());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeap)
{
    struct Big
    {
        char pad[96];
    } big{};
    big.pad[0] = 7;
    int got = 0;
    sim::InlineFunction<void(), 48> fn = [big, &got] {
        got = big.pad[0];
    };
    EXPECT_FALSE(fn.storedInline());
    fn();
    EXPECT_EQ(got, 7);
}

TEST(InlineFunction, OveralignedCaptureFallsBackToHeap)
{
    // The inline buffer is pointer-aligned; a capture that needs
    // more alignment is stored on the heap, still correctly aligned.
    struct alignas(16) Wide
    {
        int v;
    } wide{9};
    const void *seen = nullptr;
    int got = 0;
    sim::InlineFunction<void(), 48> fn = [wide, &seen, &got] {
        seen = &wide;
        got = wide.v;
    };
    EXPECT_FALSE(fn.storedInline());
    fn();
    EXPECT_EQ(got, 9);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(seen) % 16, 0u);
}

TEST(InlineFunction, HotPathCaptureShapesFitInline)
{
    // The capture shapes the fast path relies on staying
    // allocation-free. If one of these starts spilling to the heap,
    // the perf_kernel --check-allocs gate fails too — this pins the
    // budget at unit-test granularity.

    // Device completion event: this + owned BioPtr + accept time.
    void *self = nullptr;
    blk::BioPtr owned;
    sim::Time now = 0;
    sim::InlineCallback device_done =
        [self, owned = std::move(owned), now]() mutable {
            (void)self;
            (void)now;
        };
    EXPECT_TRUE(device_done.storedInline());

    // Submission CPU event: this + owned BioPtr.
    blk::BioPtr owned2;
    sim::InlineCallback cpu_done =
        [self, owned = std::move(owned2)]() mutable { (void)self; };
    EXPECT_TRUE(cpu_done.storedInline());

    // Bio completion: object pointer + keep-alive + a scalar.
    auto keep = std::make_shared<int>(1);
    blk::BioEndFn end = [self, keep,
                         started = sim::Time{0}](const blk::Bio &) {
        (void)self;
        (void)started;
    };
    EXPECT_TRUE(end.storedInline());

    // Every completion the simulator attaches to a bio, mirrored
    // capture for capture, inside the 40-byte BioEndFn budget.
    auto fits = [](auto &&fn) {
        EXPECT_LE(sizeof(fn), blk::BioEndFn::kInlineBytes);
        blk::BioEndFn wrapped = std::move(fn);
        return wrapped.storedInline();
    };
    // fio: [this, submitted].
    EXPECT_TRUE(fits([self, submitted = sim::Time{0}](
                         const blk::Bio &) { (void)self, (void)submitted; }));
    // Page-cache read fill: [this, slot].
    EXPECT_TRUE(fits([self, slot = uint32_t{0}](const blk::Bio &) {
        (void)self, (void)slot;
    }));
    // Page-cache writeback: [this, cg, bytes].
    EXPECT_TRUE(fits([self, cg = cgroup::CgroupId{0},
                      bytes = uint32_t{0}](const blk::Bio &) {
        (void)self, (void)cg, (void)bytes;
    }));
    // Memory manager swap-out: [this, chunk, barrier].
    EXPECT_TRUE(fits([self, chunk = uint64_t{0},
                      barrier = sim::AsyncBarrier::Ptr()](
                         const blk::Bio &) {
        (void)self, (void)chunk, (void)barrier;
    }));
    // Journal commit: [this]; async loops: [keep = loop.self()].
    EXPECT_TRUE(fits([self](const blk::Bio &) { (void)self; }));
    EXPECT_TRUE(fits([keep = sim::AsyncLoop::Ptr()](
                         const blk::Bio &) { (void)keep; }));
    // ZooKeeper group commit: [this, pp, batch], the largest at
    // exactly the budget.
    auto zk = [self, pp = self,
               batch = sim::MoveOnly(
                   std::vector<sim::InlineFunction<void(), 48>>())](
                  const blk::Bio &) mutable {
        (void)self, (void)pp, (void)batch;
    };
    EXPECT_EQ(sizeof(zk), blk::BioEndFn::kInlineBytes);
    EXPECT_TRUE(fits(std::move(zk)));
    // Sweep lanes: ServiceLog::releaser(), the real closure.
    blk::ServiceLog log;
    EXPECT_TRUE(log.releaser().storedInline());
}

TEST(InlineFunction, MoveTransfersCallableAndEmptiesSource)
{
    int hits = 0;
    sim::InlineFunction<void(), 48> a = [&hits] { ++hits; };
    sim::InlineFunction<void(), 48> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: post-move probe
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, MutableStateSurvivesMoves)
{
    sim::InlineFunction<int(), 48> counter = [n = 0]() mutable {
        return ++n;
    };
    EXPECT_EQ(counter(), 1);
    sim::InlineFunction<int(), 48> moved = std::move(counter);
    EXPECT_EQ(moved(), 2);
}

TEST(InlineFunction, ConsumeInvokeEmptiesBeforeRunning)
{
    // consumeInvoke must vacate the wrapper before the callable
    // runs, so the callable can reuse its own storage (the event
    // queue recycles slots this way).
    sim::InlineCallback fn;
    bool was_empty_during_call = false;
    fn = [&fn, &was_empty_during_call] {
        was_empty_during_call = !static_cast<bool>(fn);
    };
    fn.consumeInvoke();
    EXPECT_TRUE(was_empty_during_call);
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, ResetReleasesCapturedState)
{
    auto token = std::make_shared<int>(42);
    sim::InlineCallback fn = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    fn.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(fn));
}

// ---------------------------------------------------------------
// Byte budgets
// ---------------------------------------------------------------

TEST(Bio, LayoutFitsItsBudget)
{
    // A throttled backlog is nothing but bios, and every pending
    // event is one slot: these sizes set how much queued IO and how
    // many events a simulation holds per megabyte.
    EXPECT_LE(sizeof(blk::Bio), 120u);
    EXPECT_EQ(sizeof(blk::BioEndFn), blk::BioEndFn::kInlineBytes + 8);
    EXPECT_EQ(sizeof(sim::InlineCallback), 56u);
    EXPECT_LE(sim::EventQueue::kSlotBytes, 64u);
}

// ---------------------------------------------------------------
// BioPool
// ---------------------------------------------------------------

/** Restores the process-wide bypass flag on scope exit. */
struct BypassGuard
{
    explicit BypassGuard(bool on) { blk::BioPool::setBypass(on); }
    ~BypassGuard() { blk::BioPool::setBypass(false); }
};

TEST(BioPool, RecyclesReleasedBios)
{
    blk::BioPool pool;
    blk::BioPtr a = pool.make(blk::Op::Read, 0, 4096, cgroup::kRoot);
    blk::Bio *addr = a.get();
    EXPECT_EQ(a->pool, &pool);
    a.reset(); // returns to the free list, not the heap

    blk::BioPtr b =
        pool.make(blk::Op::Write, 4096, 4096, cgroup::kRoot);
    EXPECT_EQ(b.get(), addr); // LIFO free list hands it right back
    EXPECT_EQ(pool.acquired(), 2u);
    EXPECT_EQ(pool.created(), blk::BioPool::kSlabBios);
    EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(BioPool, ReusedBioIsFullyReinitialized)
{
    blk::BioPool pool;
    {
        blk::BioPtr a = pool.make(blk::Op::Write, 123, 456,
                                  cgroup::kRoot,
                                  [](const blk::Bio &) {});
        a->id = 99;
        a->swap = true;
        a->meta = true;
        a->wb = true;
        a->status = blk::BioStatus::Error;
        a->retries = 3;
        a->logHandle = 17;
        a->submitTime = 7;
        a->dispatchTime = 8;
        a->controllerScratch = 3.5;
        a->absorb(pool.make(blk::Op::Write, 579, 4096, cgroup::kRoot,
                            [](const blk::Bio &) {}));
    }
    // Both bios of the released chain come back fresh.
    std::vector<blk::BioPtr> drawn;
    for (int i = 0; i < 2; ++i) {
        drawn.push_back(
            pool.make(blk::Op::Read, 1, 2, cgroup::kRoot));
        const blk::BioPtr &b = drawn.back();
        EXPECT_EQ(b->id, 0u);
        EXPECT_EQ(b->op, blk::Op::Read);
        EXPECT_EQ(b->offset, 1u);
        EXPECT_EQ(b->size, 2u);
        EXPECT_FALSE(b->swap);
        EXPECT_FALSE(b->meta);
        EXPECT_FALSE(b->wb);
        EXPECT_EQ(b->status, blk::BioStatus::Ok);
        EXPECT_EQ(b->retries, 0u);
        EXPECT_EQ(b->logHandle, 0u);
        EXPECT_EQ(b->submitTime, 0);
        EXPECT_EQ(b->dispatchTime, 0);
        EXPECT_EQ(b->controllerScratch, 0.0);
        EXPECT_FALSE(b->onComplete);
        // No stale chain and no free-list link.
        EXPECT_EQ(b->merged, nullptr);
    }
    EXPECT_EQ(pool.acquired(), 4u);
    EXPECT_EQ(pool.created(), blk::BioPool::kSlabBios);
}

TEST(BioPool, ReleaseDropsCompletionCaptures)
{
    blk::BioPool pool;
    auto keep = std::make_shared<int>(0);
    auto make = [&](uint64_t offset) {
        return pool.make(blk::Op::Read, offset, 4096, cgroup::kRoot,
                         [keep](const blk::Bio &) {});
    };
    {
        blk::BioPtr a = make(0);
        a->absorb(make(4096));
        // An absorbed bio that already carries a chain brings it.
        blk::BioPtr b = make(8192);
        b->absorb(make(12288));
        a->absorb(std::move(b));
        EXPECT_EQ(keep.use_count(), 5);
        EXPECT_EQ(pool.outstanding(), 4u);
    }
    // Every closure in the chain released its keep-alive, and the
    // absorbed bios went back to the pool with the primary.
    EXPECT_EQ(keep.use_count(), 1);
    EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(BioPool, ChurnIsBoundedBySteadyStateDepth)
{
    blk::BioPool pool;
    constexpr unsigned kDepth = 8;
    constexpr unsigned kCycles = 10'000;

    std::deque<blk::BioPtr> window;
    for (unsigned i = 0; i < kCycles; ++i) {
        window.push_back(pool.make(blk::Op::Read,
                                   uint64_t{i} * 4096, 4096,
                                   cgroup::kRoot));
        if (window.size() > kDepth)
            window.pop_front();
    }
    window.clear();

    // A closed loop of depth kDepth must never hold more than
    // kDepth bios, and one slab covers it: no growth, all reuse.
    EXPECT_EQ(pool.highWater(), kDepth + 1);
    EXPECT_EQ(pool.created(), blk::BioPool::kSlabBios);
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_EQ(pool.acquired(), kCycles);
    EXPECT_GE(pool.recycled(),
              kCycles - blk::BioPool::kSlabBios);
}

TEST(BioPool, BypassRevertsToHeapAllocation)
{
    blk::BioPool pool;
    BypassGuard guard(true);
    EXPECT_TRUE(blk::BioPool::bypassed());
    blk::BioPtr a = pool.make(blk::Op::Read, 0, 4096, cgroup::kRoot);
    EXPECT_EQ(a->pool, nullptr); // plain heap bio; deleter frees it
    EXPECT_EQ(pool.acquired(), 0u);
    a.reset();

    blk::BioPool::setBypass(false);
    blk::BioPtr b = pool.make(blk::Op::Read, 0, 4096, cgroup::kRoot);
    EXPECT_EQ(b->pool, &pool);
}

TEST(BioPool, RepeatedMergingAllocatesNothing)
{
    // A merge chains the absorbed bios themselves, so the only
    // storage merging could take is pool growth: once the first
    // round has drawn its slots, every round recycles them.
    blk::BioPool pool;
    int runs = 0;
    auto round = [&] {
        blk::BioPtr primary =
            pool.make(blk::Op::Write, 0, 4096, cgroup::kRoot,
                      [&runs](const blk::Bio &) { ++runs; });
        for (uint64_t i = 1; i <= 4; ++i) {
            blk::BioEndFn fn = [&runs](const blk::Bio &) { ++runs; };
            EXPECT_TRUE(fn.storedInline());
            primary->absorb(pool.make(blk::Op::Write, i * 4096, 4096,
                                      cgroup::kRoot, std::move(fn)));
        }
        primary->runCompletions();
    };
    round();
    const uint64_t created = pool.created();
    for (int r = 0; r < 1000; ++r)
        round();
    EXPECT_EQ(pool.created(), created);
    EXPECT_EQ(pool.highWater(), 5u);
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_EQ(runs, 5 * 1001);
}

#ifdef IOCOST_BIO_POOL_ASAN
// Only an AddressSanitizer build (IOCOST_SANITIZE) poisons free bios.
TEST(BioPool, ReleasedBioIsPoisonedExceptItsLink)
{
    blk::BioPool pool;
    blk::BioPtr a = pool.make(blk::Op::Read, 0, 4096, cgroup::kRoot);
    blk::Bio *addr = a.get();
    EXPECT_EQ(__asan_region_is_poisoned(addr, sizeof(blk::Bio)),
              nullptr);
    a.reset();

    // Every byte of the released bio but its free-list link word.
    const char *base = reinterpret_cast<const char *>(addr);
    const char *link = reinterpret_cast<const char *>(&addr->merged);
    for (size_t i = 0; i < sizeof(blk::Bio); ++i) {
        const bool in_link =
            base + i >= link && base + i < link + sizeof(addr->merged);
        EXPECT_EQ(__asan_address_is_poisoned(base + i) != 0, !in_link)
            << "byte " << i;
    }
    // Reading a field of the released bio trips ASan.
    EXPECT_DEATH(
        {
            const volatile uint64_t id = addr->id;
            (void)id;
        },
        "use-after-poison");

    // Drawn again, the whole bio is usable.
    blk::BioPtr b = pool.make(blk::Op::Read, 0, 4096, cgroup::kRoot);
    ASSERT_EQ(b.get(), addr);
    EXPECT_EQ(__asan_region_is_poisoned(addr, sizeof(blk::Bio)),
              nullptr);
}
#endif

// ---------------------------------------------------------------
// Merge chain (back-merge support)
// ---------------------------------------------------------------

TEST(Bio, CompletionsRunInAttachOrder)
{
    blk::BioPool pool;
    std::vector<int> order;
    std::vector<const blk::Bio *> args;
    auto make = [&](uint64_t offset, int tag) {
        return pool.make(blk::Op::Write, offset, 4096, cgroup::kRoot,
                         [&order, &args, tag](const blk::Bio &b) {
                             order.push_back(tag);
                             args.push_back(&b);
                         });
    };
    blk::BioPtr bio = make(0, 0);
    bio->absorb(make(4096, 1));
    // The third bio absorbed the next two before joining: its chain
    // follows it.
    blk::BioPtr carrier = make(8192, 2);
    carrier->absorb(make(12288, 3));
    carrier->absorb(make(16384, 4));
    bio->absorb(std::move(carrier));
    bio->absorb(make(20480, 5));
    EXPECT_EQ(bio->size, 6u * 4096);
    bio->runCompletions();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    // Every callback sees the merged request, not its own bio.
    EXPECT_EQ(args, (std::vector<const blk::Bio *>(6, bio.get())));
    // Running them leaves the chain as it was.
    order.clear();
    bio->runCompletions();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Bio, AbsorbedCompletionRunsWithoutAPrimaryOne)
{
    blk::BioPool pool;
    blk::BioPtr bio =
        pool.make(blk::Op::Write, 0, 4096, cgroup::kRoot);
    EXPECT_FALSE(bio->onComplete);
    int hits = 0;
    const blk::Bio *arg = nullptr;
    bio->absorb(pool.make(blk::Op::Write, 4096, 4096, cgroup::kRoot,
                          [&](const blk::Bio &b) {
                              ++hits;
                              arg = &b;
                          }));
    // A bio without a completion may join a chain too.
    bio->absorb(pool.make(blk::Op::Write, 8192, 4096, cgroup::kRoot));
    bio->runCompletions();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(arg, bio.get());
}

// ---------------------------------------------------------------
// Pooled bios through the real stack
// ---------------------------------------------------------------

TEST(BioPool, IdsStayMonotonicAcrossRecycling)
{
    // The block layer stamps ids at submission; recycling a bio must
    // never resurrect an old id. Run a closed loop deep enough that
    // every bio is a reused slab slot several times over.
    const uint64_t recycled_before = blk::BioPool::local().recycled();

    sim::Simulator sim(99);
    device::SsdModel device(sim, device::oldGenSsd());
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, device, tree);
    const auto cg = tree.create(cgroup::kRoot, "ids");

    std::vector<uint64_t> ids;
    constexpr unsigned kDepth = 4;
    constexpr unsigned kTotal = 500;
    unsigned to_issue = kTotal;

    // Self-refilling closed loop: each completion issues the next.
    struct Driver
    {
        blk::BlockLayer &layer;
        cgroup::CgroupId cg;
        std::vector<uint64_t> &ids;
        unsigned &to_issue;

        void
        issue()
        {
            // Stride 2x the size: never contiguous, so no bio is
            // back-merged (a merge hands every absorbed callback the
            // primary's id, which would break the strict ordering
            // this test pins).
            layer.submit(blk::Bio::make(
                blk::Op::Read,
                uint64_t{8192} * (ids.size() + 1), 4096, cg,
                [this](const blk::Bio &bio) {
                    ids.push_back(bio.id);
                    if (to_issue > 0) {
                        --to_issue;
                        issue();
                    }
                }));
        }
    } drv{layer, cg, ids, to_issue};

    for (unsigned i = 0; i < kDepth; ++i) {
        --to_issue;
        drv.issue();
    }
    sim.events().runAll();

    ASSERT_EQ(ids.size(), kTotal);
    // Completions arrive out of submission order (service times
    // vary across channels), so don't expect sorted ids — expect
    // that recycling never resurrected one: the 500 observed ids
    // are exactly the 500 the layer assigned, each seen once.
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < ids.size(); ++i)
        ASSERT_EQ(ids[i], i + 1);
    // The loop really exercised recycling, not fresh slots.
    EXPECT_GT(blk::BioPool::local().recycled(), recycled_before);
}

// ---------------------------------------------------------------
// Merge chains through a snapshot
// ---------------------------------------------------------------

/**
 * A random reader and a sequential one, together six times deeper
 * than an oldgen SSD's queue: hundreds of bios stay parked in the
 * dispatch queue, and the sequential reader's contiguous bios
 * back-merge there into chains of up to 128.
 */
struct MergeRig
{
    sim::Simulator sim{5};
    std::unique_ptr<host::Host> host;
    std::vector<std::unique_ptr<workload::FioWorkload>> jobs;

    MergeRig()
    {
        core::LinearModelConfig model;
        auto dev = host::makeNamedDevice("oldgen", sim, &model);
        host::HostOptions opts;
        opts.controller = *controllers::parseControllerSpec("none");
        host = std::make_unique<host::Host>(sim, std::move(dev), opts);
        for (const bool seq : {true, false}) {
            workload::FioConfig fio;
            fio.randomFraction = seq ? 0.0 : 1.0;
            fio.iodepth = seq ? 256 : 512;
            fio.offsetBase = seq ? 0 : uint64_t{1} << 40;
            const auto cg = host->addWorkload(seq ? "seq" : "rand");
            jobs.push_back(std::make_unique<workload::FioWorkload>(
                sim, host->layer(), cg, fio));
            host->track(*jobs.back());
            jobs.back()->start();
        }
    }

    /** One node of a parked bio's merge chain. */
    struct Node
    {
        uint64_t id;
        uint64_t offset;
        uint32_t size;
        bool completes;

        bool operator==(const Node &) const = default;
    };

    /**
     * The block layer's parked bios as their merge chains, read from
     * the boxes of a layer snapshot (with no controller state, the
     * boxes are exactly the dispatch queue's bios).
     */
    std::vector<std::vector<Node>>
    parkedChains() const
    {
        sim::StateWriter w;
        host->layer().saveState(w);
        const sim::StateImage img = std::move(w).finish();
        EXPECT_EQ(img.boxCount(), host->layer().dispatchQueueDepth());
        std::vector<std::vector<Node>> out;
        for (const auto &box : img.boxes) {
            std::vector<Node> chain;
            for (auto *b = static_cast<const blk::Bio *>(box.get());
                 b != nullptr; b = b->merged.get()) {
                chain.push_back({b->id, b->offset, b->size,
                                 static_cast<bool>(b->onComplete)});
            }
            out.push_back(std::move(chain));
        }
        return out;
    }
};

TEST(BioSnapshot, MergeChainsRoundTripAndBranchEqualsCold)
{
    const sim::Time t1 = 20 * sim::kMsec;
    const sim::Time t2 = 60 * sim::kMsec;

    MergeRig cold;
    cold.sim.runUntil(t2);

    MergeRig branched;
    branched.sim.runUntil(t1);
    const auto parked = branched.parkedChains();
    size_t chained = 0;
    for (const auto &chain : parked)
        chained += chain.size() > 1;
    ASSERT_GT(chained, 0u) << "no merge chain parked at the snapshot";

    const host::HostSnapshot snap = branched.host->snapshot();
    branched.sim.runUntil(t2);
    branched.host->restore(snap);
    EXPECT_EQ(branched.parkedChains(), parked);

    branched.sim.runUntil(t2);
    EXPECT_GT(cold.host->layer().mergedBios(), 0u);
    for (size_t j = 0; j < cold.jobs.size(); ++j) {
        EXPECT_EQ(branched.jobs[j]->completed(),
                  cold.jobs[j]->completed());
    }
    EXPECT_EQ(branched.host->snapshot().image().bytes,
              cold.host->snapshot().image().bytes);
}

} // namespace
