/**
 * @file
 * Writeback snapshot coverage: snapshot/restore round-trip
 * byte-identity fuzzed *inside* the writeback machinery — dirty
 * extents queued, writeback bios in flight, writers parked at the
 * dirty wall, fsync barriers waiting — plus the what-if service's
 * determinism gate over buffered scenarios and the new scenario
 * grammar keys.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "host/device_factory.hh"
#include "host/host.hh"
#include "host/scenario.hh"
#include "mm/page_cache.hh"
#include "sim/rng.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"
#include "workload/buffered_io.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/**
 * A storm rig: an iocost host with a deliberately small page cache
 * (64M — the dirty wall sits at 12.8M), a protected direct reader,
 * a flooding buffered dirtier, and an fsync-heavy mixed job. Within
 * a few tens of milliseconds this keeps dirty extents queued,
 * writeback in flight, writers parked and barriers pending more or
 * less continuously — exactly the state a snapshot must capture.
 */
struct WbRig
{
    sim::Simulator sim;
    std::unique_ptr<host::Host> host;
    std::unique_ptr<workload::FioWorkload> reader;
    std::vector<std::unique_ptr<workload::BufferedWorkload>>
        buffered;

    explicit WbRig(const std::string &controller = "iocost",
                   uint64_t seed = 7)
        : sim(seed)
    {
        core::LinearModelConfig model;
        auto dev = host::makeNamedDevice("newgen", sim, &model);
        host::HostOptions opts;
        opts.controller = controller;
        opts.controller.iocost.model =
            core::CostModel::fromConfig(model);
        opts.enablePageCache = true;
        opts.pageCacheConfig.cacheBytes = 64ull << 20;
        host = std::make_unique<host::Host>(sim, std::move(dev),
                                            opts);

        const auto web = host->addWorkload("web", 200);
        workload::FioConfig rf;
        rf.iodepth = 8;
        reader = std::make_unique<workload::FioWorkload>(
            sim, host->layer(), web, rf);
        host->track(*reader);
        reader->start();

        const auto batch = host->addWorkload("batch", 100);
        workload::BufferedConfig dc;
        dc.name = "dirtier";
        dc.blockSize = 1 << 20;
        dc.spanBytes = 256ull << 20;
        dc.offsetBase = 1ull << 40;
        dc.thinkTime = 20 * sim::kUsec;
        dc.depth = 4;
        buffered.push_back(
            std::make_unique<workload::BufferedWorkload>(
                sim, host->pageCache(), batch, dc));

        const auto db = host->addWorkload("db", 150);
        workload::BufferedConfig fc;
        fc.name = "db";
        fc.blockSize = 16 * 1024;
        fc.spanBytes = 32ull << 20;
        fc.offsetBase = 2ull << 40;
        fc.randomFraction = 1.0;
        fc.readFraction = 0.3;
        fc.fsyncEvery = 4;
        fc.thinkTime = 50 * sim::kUsec;
        buffered.push_back(
            std::make_unique<workload::BufferedWorkload>(
                sim, host->pageCache(), db, fc));

        for (auto &b : buffered) {
            host->track(*b);
            b->start();
        }
    }

    /** The byte tape of a fresh snapshot: the state signature. */
    std::vector<unsigned char>
    signature() const
    {
        return host->snapshot().image().bytes;
    }
};

/**
 * snapshot -> restore -> run(T) must be byte-identical to run(T)
 * without the round-trip, fuzzed over round-trip instants chosen to
 * land inside the storm, under both a debt-pacing controller
 * (iocost: the dirtier is held off the wall, fsync barriers park)
 * and an unpaced one (blk-throttle: the flood lives at the dirty
 * wall with writeback continuously in flight). The aggregate
 * assertions at the end prove the fuzz actually sampled live
 * writeback state rather than calm instants.
 */
TEST(WritebackSnapshot, RoundTripInsideTheStorm)
{
    sim::Rng fuzz(2026);
    int parked_seen = 0;
    int inflight_seen = 0;
    for (int iter = 0; iter < 6; ++iter) {
        const std::string ctl =
            iter % 2 ? "blk-throttle" : "iocost";
        const sim::Time t1 =
            20 * sim::kMsec +
            static_cast<sim::Time>(fuzz.below(400 * sim::kMsec));
        const sim::Time t2 = t1 + 150 * sim::kMsec;

        WbRig plain(ctl);
        plain.sim.runUntil(t1);
        plain.sim.runUntil(t2);

        WbRig tripped(ctl);
        tripped.sim.runUntil(t1);
        if (tripped.host->pageCache().pendingOps() > 0)
            ++parked_seen;
        if (tripped.host->pageCache().wbInflight() > 0)
            ++inflight_seen;
        const host::HostSnapshot snap = tripped.host->snapshot();
        tripped.host->restore(snap);
        tripped.sim.runUntil(t2);

        EXPECT_EQ(plain.signature(), tripped.signature())
            << "writeback state diverged after a round-trip at t="
            << t1;
    }
    EXPECT_GT(parked_seen, 0)
        << "no round-trip instant caught a parked operation — the "
           "fuzz is not exercising stalls/fsync barriers";
    EXPECT_GT(inflight_seen, 0)
        << "no round-trip instant caught writeback in flight";
}

/** One mid-storm snapshot restored twice must replay identically
 *  both times (parked-op slots and dirty extents clone out of the
 *  immutable image). */
TEST(WritebackSnapshot, MultiRestoreMidStall)
{
    WbRig rig;
    rig.sim.runUntil(100 * sim::kMsec);
    const host::HostSnapshot snap = rig.host->snapshot();

    rig.host->restore(snap);
    rig.sim.runUntil(300 * sim::kMsec);
    const auto first = rig.signature();

    rig.host->restore(snap);
    rig.sim.runUntil(300 * sim::kMsec);
    const auto second = rig.signature();

    EXPECT_EQ(first, second);
}

host::ScenarioSpec
bufferedScenario()
{
    return host::ScenarioSpec::parse(
        "device=newgen;seconds=0.4;marks=100ms,200ms;seed=11;"
        "pagecache=32M;dirty_ratio=30;"
        "job=web:weight=200:depth=16;"
        "job=batch:weight=100:buffered=1:bs=262144:span=67108864;"
        "job=db:weight=150:buffered=1:bs=16384:fsync=4:"
        "span=8388608");
}

/** Branch-from-checkpoint must equal a cold full re-run byte for
 *  byte when buffered jobs, the flusher and parked writers cross
 *  the checkpoint marks. */
TEST(WhatifBuffered, BranchEqualsCold)
{
    const host::ScenarioSpec sc = bufferedScenario();
    whatif::Service service(sc, 2);
    const char *const queries[] = {
        "{\"q\":\"weight\",\"cg\":\"batch\",\"value\":500,"
        "\"from\":\"150ms\"}",
        "{\"q\":\"device\",\"profile\":\"oldgen\","
        "\"from\":\"100ms\"}",
        "{\"q\":\"fault\",\"spec\":\"lat@250ms+100ms=6\","
        "\"from\":\"220ms\"}",
    };
    for (const char *line : queries) {
        const whatif::Query q = whatif::Query::parse(line);
        EXPECT_EQ(service.evaluate(q),
                  whatif::Service::evaluateCold(sc, q))
            << "buffered query " << line;
    }
}

/** The new scenario keys canonicalize stably, change the scenario
 *  hash, and stay entirely absent from page-cache-less scenarios
 *  (pre-existing canonical strings and cache keys must not move). */
TEST(WhatifBuffered, ScenarioGrammar)
{
    const host::ScenarioSpec sc = bufferedScenario();
    EXPECT_NE(sc.canonical().find("pagecache=33554432"),
              std::string::npos);
    EXPECT_NE(sc.canonical().find("dirty_ratio=30"),
              std::string::npos);
    const host::ScenarioSpec again = bufferedScenario();
    EXPECT_EQ(again.canonical(), sc.canonical());
    EXPECT_EQ(again.hash(), sc.hash());

    const host::ScenarioSpec plain = host::ScenarioSpec::parse(
        "device=newgen;seconds=0.4;marks=100ms,200ms;seed=11");
    EXPECT_EQ(plain.canonical().find("pagecache"),
              std::string::npos);
    EXPECT_EQ(plain.canonical().find("dirty_ratio"),
              std::string::npos);

    host::ScenarioSpec with_cache = plain;
    with_cache.pagecacheBytes = 32ull << 20;
    with_cache.normalize();
    EXPECT_NE(with_cache.hash(), plain.hash());

    EXPECT_THROW(host::ScenarioSpec::parse(
                     "device=newgen;seconds=0.1;dirty_ratio=180"),
                 std::invalid_argument);
}

/** A buffered job without pagecache= is a loud construction error,
 *  not a silent direct-IO fallback. */
TEST(WhatifBuffered, BufferedRequiresPagecache)
{
    const host::ScenarioSpec sc = host::ScenarioSpec::parse(
        "device=newgen;seconds=0.2;seed=1;"
        "job=b:weight=100:buffered=1");
    EXPECT_THROW(whatif::Replica replica(sc),
                 std::invalid_argument);
}

} // namespace
