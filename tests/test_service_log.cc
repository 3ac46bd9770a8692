/**
 * @file
 * ServiceLog: the sweep's shared outcome log of live ids, and the
 * slot pool it lives in.
 *
 * An id is opened with one holder per consumer (the generator plus
 * each lane) and freed, retry entries included, when the last one
 * releases it. open() returns the handle of the id's slot, and every
 * later call passes it with the id. Until the last release every
 * lookup keeps its meaning: exact attempts, the retry clamp once the
 * id is closed, and the error-after-a-tick outcome for an id closed
 * with no entry. A release with no holder left, or a handle whose
 * slot holds another id, is a bookkeeping bug and panics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "blk/bio_pool.hh"
#include "blk/service_log.hh"
#include "device/replay_device.hh"
#include "sim/id_table.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/slot_pool.hh"

namespace {

using namespace iocost;

TEST(ServiceLog, EntryReadableUntilLastHolderReleases)
{
    blk::ServiceLog log;
    std::vector<std::pair<uint32_t, uint64_t>> events;
    log.setListener([&events](uint32_t h, uint64_t id) {
        events.emplace_back(h, id);
    });

    const uint32_t h = log.open(7, 3); // the generator and two lanes
    EXPECT_EQ(log.live(), 1u);
    EXPECT_FALSE(log.find(h, 7, 0));

    log.append(h, 7, 0, 500, blk::BioStatus::Ok);
    log.close(h, 7); // releases the generator's hold
    const std::pair<uint32_t, uint64_t> ev{h, 7};
    EXPECT_EQ(events, (std::vector{ev, ev}));
    ASSERT_TRUE(log.find(h, 7, 0));
    EXPECT_EQ(log.find(h, 7, 0)->duration, 500);
    EXPECT_TRUE(log.closed(h, 7));

    log.release(h, 7);
    ASSERT_TRUE(log.find(h, 7, 0));
    EXPECT_EQ(log.live(), 1u);

    log.release(h, 7);
    EXPECT_EQ(log.live(), 0u);
    EXPECT_EQ(log.peakLive(), 1u);
    EXPECT_EQ(log.peakSlots(), 1u);

    // The freed slot is the next one handed out, and it keeps
    // nothing of the id it held.
    EXPECT_EQ(log.open(8, 1), h);
    EXPECT_FALSE(log.find(h, 8, 0));
    EXPECT_FALSE(log.closed(h, 8));
    EXPECT_EQ(log.peakSlots(), 1u);
}

TEST(ServiceLog, RetryAttemptsAndClampLiveAndDieWithTheId)
{
    blk::ServiceLog log;
    const uint32_t h = log.open(5, 2);
    log.append(h, 5, 0, 100, blk::BioStatus::Error);
    log.append(h, 5, 1, 200, blk::BioStatus::Error);
    log.append(h, 5, 2, 300, blk::BioStatus::Ok);

    ASSERT_TRUE(log.find(h, 5, 1));
    EXPECT_EQ(log.find(h, 5, 1)->duration, 200);
    EXPECT_EQ(log.find(h, 5, 1)->status, blk::BioStatus::Error);
    EXPECT_FALSE(log.find(h, 5, 3));
    // A lane that wants more attempts than the generator made clamps
    // to the last recorded one.
    ASSERT_TRUE(log.findClamped(h, 5, 7));
    EXPECT_EQ(log.findClamped(h, 5, 7)->duration, 300);
    EXPECT_EQ(log.findClamped(h, 5, 1)->duration, 200);
    // Only attempts >= 1 go through the retry table.
    EXPECT_GT(log.hashedLookups(), 0u);

    log.close(h, 5);
    log.release(h, 5);
    EXPECT_EQ(log.live(), 0u);

    // Reopening the id (in the same slot) finds no stale attempt:
    // the retry entries were erased with it.
    EXPECT_EQ(log.open(5, 1), h);
    EXPECT_FALSE(log.find(h, 5, 1));
    EXPECT_FALSE(log.find(h, 5, 2));
    EXPECT_FALSE(log.findClamped(h, 5, 2));
}

TEST(ServiceLog, PeakSlotsEqualPeakLiveUnderChurn)
{
    // Random open/append/close/release churn, the sweep's own shape:
    // ids open in increasing order and retire out of order. A slot
    // is reused before a new one is created, so the arena never
    // holds more slots than the most ids ever live at once, and
    // first attempts never touch the retry table.
    blk::ServiceLog log;
    sim::Rng rng(2024);
    struct Live
    {
        uint32_t handle;
        uint64_t id;
        uint32_t holders;
    };
    std::vector<Live> live;
    uint64_t next_id = 1;
    size_t peak = 0;
    for (int step = 0; step < 20000; ++step) {
        if (live.empty() || rng.chance(0.52)) {
            const uint32_t holders =
                1 + static_cast<uint32_t>(rng.below(4));
            const uint32_t h = log.open(next_id, holders);
            for (const Live &l : live)
                ASSERT_NE(l.handle, h) << "handle handed out twice";
            log.append(h, next_id, 0, static_cast<sim::Time>(step),
                       blk::BioStatus::Ok);
            live.push_back(Live{h, next_id++, holders});
            peak = std::max(peak, live.size());
        } else {
            const size_t i = rng.below(live.size());
            Live &l = live[i];
            ASSERT_TRUE(log.find(l.handle, l.id, 0));
            log.release(l.handle, l.id);
            if (--l.holders == 0) {
                live[i] = live.back();
                live.pop_back();
            }
        }
        ASSERT_EQ(log.live(), live.size());
    }
    EXPECT_GT(peak, 50u);
    EXPECT_EQ(log.peakLive(), peak);
    EXPECT_EQ(log.peakSlots(), peak);
    EXPECT_EQ(log.hashedLookups(), 0u);
}

TEST(SlotPool, HandlesRecycleLastReleasedFirst)
{
    struct Slot
    {
        int value = 0;
        uint32_t next = 0;
    };
    sim::SlotPool<Slot, &Slot::next> pool;
    const uint32_t a = pool.acquire();
    const uint32_t b = pool.acquire();
    EXPECT_EQ(pool.acquire(), 2u);
    EXPECT_EQ(pool.slots(), 3u);
    pool[b].value = 42;

    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.live(), 1u);
    // Last released, first reused; the slot keeps what its previous
    // user left (the caller reinitializes what it needs).
    EXPECT_EQ(pool.acquire(), b);
    EXPECT_EQ(pool[b].value, 42);
    EXPECT_EQ(pool.acquire(), a);
    EXPECT_EQ(pool.acquire(), 3u);
    EXPECT_EQ(pool.slots(), 4u);
    EXPECT_EQ(pool.live(), 4u);
}

/** A bare replay lane wired the way SweepRunner wires one: the log's
 *  listener resolves parked bios, completions release the id. */
struct ReplayLane
{
    sim::Simulator sim{1};
    blk::ServiceLog log;
    device::ReplayDevice dev{sim, log, 4, "replay"};
    std::vector<device::ReplayDevice::Resolved> resolved;
    blk::BioStatus status = blk::BioStatus::Ok;
    sim::Time doneAt = -1;

    ReplayLane()
    {
        dev.setCompletionFn([this](blk::BioPtr bio, sim::Time) {
            status = bio->status;
            doneAt = sim.now();
            log.release(bio->logHandle, bio->id);
        });
        log.setListener([this](uint32_t, uint64_t id) {
            dev.resolveDetached(id, resolved);
            for (device::ReplayDevice::Resolved &r : resolved) {
                const sim::Time d = r.duration;
                sim.after(d, [this, bio = blk::BioCapture(
                                        std::move(r.bio)),
                              d]() mutable {
                    dev.finishReplayed(bio.take(), d);
                });
            }
            resolved.clear();
        });
    }

    void
    submit(uint32_t handle, uint64_t id)
    {
        blk::BioPtr bio = blk::Bio::make(blk::Op::Read, 0, 4096, 1);
        bio->id = id;
        bio->logHandle = handle;
        ASSERT_TRUE(dev.submit(bio));
    }
};

TEST(ServiceLog, ClosedWithNoEntryFailsAfterATick)
{
    // Closed before the lane dispatched: resolved on submit.
    {
        ReplayLane lane;
        const uint32_t h = lane.log.open(1, 2);
        lane.log.close(h, 1);
        lane.submit(h, 1);
        lane.sim.runUntil(sim::kSec);
        EXPECT_EQ(lane.status, blk::BioStatus::Error);
        EXPECT_EQ(lane.doneAt, 1);
        EXPECT_EQ(lane.log.live(), 0u);
    }
    // Parked first, then closed: resolved by the close notification.
    {
        ReplayLane lane;
        const uint32_t h = lane.log.open(2, 2);
        lane.submit(h, 2);
        EXPECT_EQ(lane.dev.pendingCount(), 1u);
        lane.sim.runUntil(50);
        lane.log.close(h, 2);
        EXPECT_EQ(lane.dev.pendingCount(), 0u);
        lane.sim.runUntil(sim::kSec);
        EXPECT_EQ(lane.status, blk::BioStatus::Error);
        EXPECT_EQ(lane.doneAt, 51);
        EXPECT_EQ(lane.log.live(), 0u);
    }
}

TEST(ServiceLogDeathTest, ReleaseWithNoHolderLeftPanics)
{
    blk::ServiceLog log;
    EXPECT_DEATH(log.release(0, 42), "not live"); // no slot at all
    const uint32_t h = log.open(1, 1);
    log.release(h, 1);
    EXPECT_DEATH(log.release(h, 1), "not live"); // released twice
    const uint32_t h2 = log.open(2, 2);
    EXPECT_DEATH(log.release(h2, 2, 3), "no holder left");
    EXPECT_DEATH(log.append(h2, 9, 0, 1, blk::BioStatus::Ok),
                 "not live");
}

TEST(ServiceLogDeathTest, HandleWhoseSlotHoldsAnotherIdPanics)
{
    blk::ServiceLog log;
    const uint32_t a = log.open(10, 2);
    const uint32_t b = log.open(11, 1);
    EXPECT_DEATH((void)log.find(a, 11, 0), "not live");
    EXPECT_DEATH((void)log.closed(b, 10), "not live");
    EXPECT_DEATH(log.close(a, 11), "not live");
    EXPECT_DEATH(log.release(b, 10), "not live");
    // A stale handle: its id retired and a later id took the slot.
    log.release(b, 11);
    EXPECT_EQ(log.open(12, 1), b);
    EXPECT_DEATH(log.release(b, 11), "not live");
    EXPECT_DEATH((void)log.findClamped(b, 11, 0), "not live");
}

TEST(IdTable, ChurnKeepsEveryLiveIdFindable)
{
    // Dense ids churned through a small table: growth at 50% load
    // and backward-shift erase must never lose or duplicate an id.
    sim::IdTable<uint64_t> t;
    for (uint64_t id = 1; id <= 1000; ++id) {
        t.insert(id) = id * 3;
        if (id % 3 == 1 && id > 1)
            t.erase(*t.find(id - 1));
    }
    size_t n = 0;
    t.forEach([&n](uint64_t id, uint64_t &v) {
        EXPECT_EQ(v, id * 3);
        ++n;
    });
    EXPECT_EQ(n, t.size());
    EXPECT_EQ(n, 667u);
    for (uint64_t id = 1; id <= 1000; ++id)
        EXPECT_EQ(t.find(id) == nullptr, id % 3 == 0) << id;
}

} // namespace
