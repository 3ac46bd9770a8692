/**
 * @file
 * ServiceLog: the sweep's shared outcome log of live ids.
 *
 * An id is opened with one holder per consumer (the generator plus
 * each lane) and erased, retry entries included, when the last one
 * releases it. Until then every lookup keeps its meaning: exact
 * attempts, the retry clamp once the id is closed, and the
 * error-after-a-tick outcome for an id closed with no entry. A
 * release with no holder left is a bookkeeping bug and panics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "blk/bio_pool.hh"
#include "blk/service_log.hh"
#include "device/replay_device.hh"
#include "sim/id_table.hh"
#include "sim/simulator.hh"

namespace {

using namespace iocost;

TEST(ServiceLog, EntryReadableUntilLastHolderReleases)
{
    blk::ServiceLog log;
    std::vector<uint64_t> events;
    log.setListener([&events](uint64_t id) { events.push_back(id); });

    log.open(7, 3); // the generator and two lanes
    EXPECT_EQ(log.live(), 1u);
    EXPECT_EQ(log.find(7, 0), nullptr);

    log.append(7, 0, 500, blk::BioStatus::Ok);
    log.close(7); // releases the generator's hold
    EXPECT_EQ(events, (std::vector<uint64_t>{7, 7}));
    ASSERT_NE(log.find(7, 0), nullptr);
    EXPECT_EQ(log.find(7, 0)->duration, 500);
    EXPECT_TRUE(log.closed(7));

    log.release(7);
    ASSERT_NE(log.find(7, 0), nullptr);
    EXPECT_EQ(log.live(), 1u);

    log.release(7);
    EXPECT_EQ(log.find(7, 0), nullptr);
    EXPECT_FALSE(log.closed(7));
    EXPECT_EQ(log.live(), 0u);
    EXPECT_EQ(log.peakLive(), 1u);
}

TEST(ServiceLog, RetryAttemptsAndClampLiveAndDieWithTheId)
{
    blk::ServiceLog log;
    log.open(5, 2);
    log.append(5, 0, 100, blk::BioStatus::Error);
    log.append(5, 1, 200, blk::BioStatus::Error);
    log.append(5, 2, 300, blk::BioStatus::Ok);

    ASSERT_NE(log.find(5, 1), nullptr);
    EXPECT_EQ(log.find(5, 1)->duration, 200);
    EXPECT_EQ(log.find(5, 1)->status, blk::BioStatus::Error);
    EXPECT_EQ(log.find(5, 3), nullptr);
    // A lane that wants more attempts than the generator made clamps
    // to the last recorded one.
    ASSERT_NE(log.findClamped(5, 7), nullptr);
    EXPECT_EQ(log.findClamped(5, 7)->duration, 300);
    EXPECT_EQ(log.findClamped(5, 1)->duration, 200);

    log.close(5);
    log.release(5);
    EXPECT_EQ(log.live(), 0u);
    EXPECT_EQ(log.find(5, 1), nullptr);
    EXPECT_EQ(log.findClamped(5, 2), nullptr);

    // Reopening the id finds no stale attempt: the retry entries
    // were erased with it.
    log.open(5, 1);
    EXPECT_EQ(log.find(5, 1), nullptr);
    EXPECT_EQ(log.find(5, 2), nullptr);
    EXPECT_EQ(log.findClamped(5, 2), nullptr);
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
            log.release(bio->id);
        });
        log.setListener([this](uint64_t id) {
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
    submit(uint64_t id)
    {
        blk::BioPtr bio = blk::Bio::make(blk::Op::Read, 0, 4096, 1);
        bio->id = id;
        ASSERT_TRUE(dev.submit(bio));
    }
};

TEST(ServiceLog, ClosedWithNoEntryFailsAfterATick)
{
    // Closed before the lane dispatched: resolved on submit.
    {
        ReplayLane lane;
        lane.log.open(1, 2);
        lane.log.close(1);
        lane.submit(1);
        lane.sim.runUntil(sim::kSec);
        EXPECT_EQ(lane.status, blk::BioStatus::Error);
        EXPECT_EQ(lane.doneAt, 1);
        EXPECT_EQ(lane.log.live(), 0u);
    }
    // Parked first, then closed: resolved by the close notification.
    {
        ReplayLane lane;
        lane.log.open(2, 2);
        lane.submit(2);
        EXPECT_EQ(lane.dev.pendingCount(), 1u);
        lane.sim.runUntil(50);
        lane.log.close(2);
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
    EXPECT_DEATH(log.release(42), "no holder left");
    log.open(1, 1);
    log.release(1);
    EXPECT_DEATH(log.release(1), "no holder left");
    log.open(2, 2);
    EXPECT_DEATH(log.release(2, 3), "no holder left");
    EXPECT_DEATH(log.append(9, 0, 1, blk::BioStatus::Ok),
                 "not live");
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
