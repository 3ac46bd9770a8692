/**
 * @file
 * FleetScenario: spec grammar, canonical round-trip, and the
 * deterministic per-host derivations (device/workload/migration/
 * seed) that the sharded engine's byte-identity rests on.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "fleet/fleet_scenario.hh"

namespace {

using namespace iocost;
using namespace iocost::fleet;

TEST(FleetScenario, DefaultsFromMinimalSpec)
{
    const FleetScenario sc = FleetScenario::parse("hosts=40 days=8");
    EXPECT_EQ(sc.hosts, 40u);
    EXPECT_EQ(sc.days, 8u);
    EXPECT_EQ(sc.seed, 2022u);
    // Default mixes: the full A..H device population, one mixed
    // workload, one migration stage across the middle half.
    EXPECT_EQ(sc.devices.size(), 8u);
    ASSERT_EQ(sc.workloads.size(), 1u);
    EXPECT_EQ(sc.workloads[0].kind, WorkloadKind::Mixed);
    ASSERT_EQ(sc.stages.size(), 1u);
    EXPECT_EQ(sc.stages[0].startDay, 2u);
    EXPECT_EQ(sc.stages[0].endDay, 6u);
}

TEST(FleetScenario, ParsesFullSpec)
{
    const FleetScenario sc = FleetScenario::parse(
        "hosts=10000 days=24 seed=7 shards=64 "
        "migration=4..10:30,12..20:70 "
        "devices=A:25,D:25,G:25,H:25 "
        "workloads=mixed:60,writeheavy:25,readheavy:15 "
        "faults=lat@1s+500ms=4 "
        "slice=100ms warmup=250ms fetch=1M fetch_deadline=50ms "
        "cleanup=20 cleanup_io=8K cleanup_deadline=25ms");
    EXPECT_EQ(sc.hosts, 10000u);
    EXPECT_EQ(sc.seed, 7u);
    EXPECT_EQ(sc.shards, 64u);
    ASSERT_EQ(sc.stages.size(), 2u);
    EXPECT_EQ(sc.stages[1].startDay, 12u);
    EXPECT_DOUBLE_EQ(sc.stages[0].fraction, 0.30);
    ASSERT_EQ(sc.devices.size(), 4u);
    EXPECT_EQ(sc.devices[1].spec.name, "fleet-ssd-D");
    ASSERT_EQ(sc.workloads.size(), 3u);
    EXPECT_EQ(sc.workloads[1].kind, WorkloadKind::WriteHeavy);
    EXPECT_EQ(sc.faults, "lat@1s+500ms=4");
    EXPECT_EQ(sc.slice, 100 * sim::kMsec);
    EXPECT_EQ(sc.warmup, 250 * sim::kMsec);
    EXPECT_EQ(sc.fetchBytes, 1ull << 20);
    EXPECT_EQ(sc.fetchDeadline, 50 * sim::kMsec);
    EXPECT_EQ(sc.cleanupOps, 20u);
    EXPECT_EQ(sc.cleanupIoBytes, 8u * 1024);
    EXPECT_EQ(sc.cleanupDeadline, 25 * sim::kMsec);
}

TEST(FleetScenario, CommentsAndNewlinesAreFileForm)
{
    const FleetScenario sc = FleetScenario::parse(
        "# a scenario file\n"
        "hosts=12 days=6   # trailing comment\n"
        "devices=A,B\n");
    EXPECT_EQ(sc.hosts, 12u);
    EXPECT_EQ(sc.days, 6u);
    EXPECT_EQ(sc.devices.size(), 2u);
}

TEST(FleetScenario, CanonicalRoundTrips)
{
    const FleetScenario sc = FleetScenario::parse(
        "hosts=500 days=12 seed=9 shards=16 "
        "migration=2..5:40,6..10:60 devices=A:70,H:30 "
        "workloads=bursty:50,mixed:50 faults=err@1s+100ms=0.5 "
        "slice=20ms warmup=30ms fetch=128K fetch_deadline=10ms "
        "cleanup=8 cleanup_io=4K cleanup_deadline=5ms");
    const FleetScenario re = FleetScenario::parse(sc.canonical());
    EXPECT_EQ(re.canonical(), sc.canonical());
    // Round-tripped derivations are identical too.
    for (unsigned h = 0; h < sc.hosts; h += 17) {
        EXPECT_EQ(re.migrationDay(h), sc.migrationDay(h));
        EXPECT_EQ(re.deviceIndexFor(h), sc.deviceIndexFor(h));
        EXPECT_EQ(re.workloadFor(h), sc.workloadFor(h));
        EXPECT_EQ(re.hostDaySeed(3, h), sc.hostDaySeed(3, h));
    }
}

TEST(FleetScenario, RejectsMalformedSpecs)
{
    EXPECT_THROW(FleetScenario::parse("hosts"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("hosts=abc"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("hosts=0 days=5"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("hosts=5 days=0"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("devices=Z"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("devices=A:,B"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("workloads=steady"),
                 std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("migration=5..2"),
                 std::invalid_argument);
    EXPECT_THROW(
        FleetScenario::parse("hosts=5 days=4 migration=1..9"),
        std::invalid_argument);
    EXPECT_THROW(FleetScenario::parse("slice=10parsecs"),
                 std::invalid_argument);
    // Stage coverage is absolute: together stages cannot exceed
    // the fleet.
    EXPECT_THROW(FleetScenario::parse(
                     "hosts=8 days=8 migration=0..2:60,3..5:60"),
                 std::invalid_argument);
    // Fault plans validate eagerly at parse time, not in a worker.
    EXPECT_THROW(FleetScenario::parse("faults=err@oops"),
                 std::invalid_argument);
    // Values past their field's range, not wrapped: hosts=2^32 + 1
    // used to run one host, and the slice wrapped to a negative time.
    for (const char *spec :
         {"hosts=4294967297", "days=4294967296", "shards=4294967296",
          "migration=0..4294967296", "cleanup=4294967296",
          "cleanup_io=4G", "slice=9999999999999999999910ms",
          "fetch=99999999999G"}) {
        EXPECT_THROW(FleetScenario::parse(spec), std::invalid_argument)
            << spec;
    }
}

TEST(FleetScenario, DevicesMustBeNamedSsds)
{
    const struct
    {
        const char *spec;
        const char *error;
    } cases[] = {
        {"devices=hdd", "device \"hdd\" is not an SSD"},
        {"devices=gp3", "device \"gp3\" is not an SSD"},
        {"devices=Z",
         "unknown device \"Z\" (oldgen, newgen, enterprise, A, B, C, "
         "D, E, F, G, H, hdd, gp3, io2, pd-balanced, pd-ssd)"},
    };
    for (const auto &c : cases) {
        try {
            (void)FleetScenario::parse(c.spec);
            ADD_FAILURE() << "accepted " << c.spec;
        } catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find(c.error),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(FleetScenario, MixSeedsCollisionFreeWhereLegacyCollides)
{
    const FleetScenario sc = FleetScenario::parse("hosts=30000 days=4");
    // A polynomial slice seed aliases (day, host) pairs once
    // host > 10007: (0, 10007) == (1, 0).
    auto polynomial = [&](unsigned day, unsigned host) {
        return sc.seed * 1000003ull + day * 10007ull + host;
    };
    EXPECT_EQ(polynomial(0, 10007), polynomial(1, 0));
    EXPECT_NE(sc.hostDaySeed(0, 10007), sc.hostDaySeed(1, 0));

    std::set<uint64_t> seen;
    for (unsigned day = 0; day < sc.days; ++day) {
        for (unsigned h = 0; h < sc.hosts; h += 3)
            seen.insert(sc.hostDaySeed(day, h));
    }
    EXPECT_EQ(seen.size(),
              static_cast<size_t>(sc.days) * (sc.hosts / 3));
}

TEST(FleetScenario, ShareAssignmentTracksMixProportions)
{
    const FleetScenario sc = FleetScenario::parse(
        "hosts=20000 days=4 devices=A:50,H:50 "
        "workloads=mixed:75,bursty:25");
    unsigned dev_a = 0, wl_mixed = 0;
    for (unsigned h = 0; h < sc.hosts; ++h) {
        // Derivations are pure functions of (seed, host).
        ASSERT_EQ(sc.deviceIndexFor(h), sc.deviceIndexFor(h));
        dev_a += sc.deviceIndexFor(h) == 0 ? 1 : 0;
        wl_mixed +=
            sc.workloadFor(h) == WorkloadKind::Mixed ? 1 : 0;
    }
    // Binomial(20000, .5) is within 3% of its mean with huge
    // margin; same for .75.
    EXPECT_NEAR(static_cast<double>(dev_a) / sc.hosts, 0.50, 0.03);
    EXPECT_NEAR(static_cast<double>(wl_mixed) / sc.hosts, 0.75,
                0.03);
}

TEST(FleetScenario, StagedMigrationCoversStagesInHostOrder)
{
    const FleetScenario sc = FleetScenario::parse(
        "hosts=100 days=20 migration=2..6:30,10..18:70");
    // First 30 hosts ride stage 1, remaining 70 stage 2; within a
    // stage days are staggered and non-decreasing in host index.
    for (unsigned h = 0; h < 30; ++h) {
        EXPECT_GE(sc.migrationDay(h), 2u);
        EXPECT_LT(sc.migrationDay(h), 6u);
    }
    for (unsigned h = 30; h < 100; ++h) {
        EXPECT_GE(sc.migrationDay(h), 10u);
        EXPECT_LT(sc.migrationDay(h), 18u);
    }
    for (unsigned h = 1; h < 30; ++h)
        EXPECT_GE(sc.migrationDay(h), sc.migrationDay(h - 1));
}

TEST(FleetScenario, PartialMigrationLeavesRestOnIoLatency)
{
    const FleetScenario sc = FleetScenario::parse(
        "hosts=10 days=8 migration=1..4:50");
    unsigned never = 0;
    for (unsigned h = 0; h < sc.hosts; ++h)
        never += sc.migrationDay(h) >= sc.days ? 1 : 0;
    EXPECT_EQ(never, 5u);
}

} // namespace
