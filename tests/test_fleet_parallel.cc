/**
 * @file
 * Determinism of the parallel fleet runner: FleetSim::runScenario
 * must produce byte-identical results for any worker count, because
 * every host-day slice owns a private Simulator seeded only from
 * (scenario seed, day, host) and the reduction runs in (day, host)
 * order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"

namespace {

using namespace iocost;
using namespace iocost::fleet;

/** Small-but-contended fleet so the test runs in ~a second. */
FleetScenario
tinyFleet(const std::string &size = "hosts=6 days=5 migration=1..4")
{
    return FleetScenario::parse(
        size + " seed=77 devices=oldgen,newgen warmup=300ms "
        "slice=250ms fetch=2M cleanup=40");
}

std::vector<FleetDayResult>
runDays(const FleetScenario &sc, unsigned jobs, unsigned shards = 0)
{
    RunOptions opts;
    opts.jobs = jobs;
    opts.shards = shards;
    return FleetSim::runScenario(sc, opts).days;
}

void
expectIdentical(const std::vector<FleetDayResult> &a,
                const std::vector<FleetDayResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].day, b[i].day);
        EXPECT_EQ(a[i].fractionOnIoCost, b[i].fractionOnIoCost);
        EXPECT_EQ(a[i].fetchAttempts, b[i].fetchAttempts);
        EXPECT_EQ(a[i].fetchFailures, b[i].fetchFailures);
        EXPECT_EQ(a[i].cleanupAttempts, b[i].cleanupAttempts);
        EXPECT_EQ(a[i].cleanupFailures, b[i].cleanupFailures);
    }
}

TEST(FleetParallel, FourJobsMatchSequential)
{
    const FleetScenario sc = tinyFleet();
    expectIdentical(runDays(sc, 1), runDays(sc, 4));
}

TEST(FleetParallel, NonDividingJobCountMatchesSequential)
{
    const FleetScenario sc = tinyFleet();
    // 3 workers over 5 shards of the 6 hosts.
    expectIdentical(runDays(sc, 1), runDays(sc, 3, 5));
}

TEST(FleetParallel, MoreJobsThanSlicesIsSafe)
{
    const FleetScenario sc =
        tinyFleet("hosts=2 days=2 migration=1..2");
    // 64 workers, clamped to the 2 host shards.
    expectIdentical(runDays(sc, 1), runDays(sc, 64));
}

TEST(FleetParallel, RunsProduceWork)
{
    // Guard against the determinism tests passing vacuously on an
    // empty result.
    const FleetScenario sc = tinyFleet();
    const auto days = runDays(sc, 2);
    ASSERT_EQ(days.size(), sc.days);
    EXPECT_EQ(days.front().fetchAttempts, sc.hosts);
    EXPECT_EQ(days.back().fractionOnIoCost, 1.0);
}

} // namespace
